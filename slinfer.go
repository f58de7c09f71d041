// Package slinfer is the public facade of the SLINFER reproduction: a
// resource-efficient serverless LLM inference scheme (HPCA 2026) rebuilt as
// a deterministic discrete-event simulation over calibrated CPU/GPU
// hardware models.
//
// A minimal session:
//
//	cluster := slinfer.Testbed(4, 4)                  // 4 CPU + 4 GPU nodes
//	models := slinfer.Replicas(slinfer.Llama2_7B, 64) // 64 hosted 7B models
//	trace := slinfer.AzureTrace(models, 30, 1)        // 30-minute trace, seed 1
//	report := slinfer.Run(slinfer.SLINFER(), cluster, models, trace)
//	fmt.Println(report.SLORate)
//
// The same workload over a deterministic 4-shard fleet behind a front door:
//
//	shards := slinfer.UniformFleet(4, 4, 4) // 4 shards, each 4 CPU + 4 GPU
//	cfg := slinfer.FleetConfig{System: slinfer.SLINFER(), Shards: shards,
//	    Models: models, Routing: slinfer.LeastOutstandingRouting()}
//	res := slinfer.RunFleet(cfg, trace)
//	fmt.Println(res.Report.SLORate, len(res.Rejections))
//
// Baseline systems (Sllm, SllmC, SllmCS, NEOPlus), the ablation variants,
// and every knob of the paper's sensitivity studies are exposed through
// Config. See DESIGN.md for the architecture and EXPERIMENTS.md for the
// paper-vs-measured record.
package slinfer

import (
	"io"

	"slinfer/internal/baseline"
	"slinfer/internal/core"
	"slinfer/internal/experiments"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/invariants"
	"slinfer/internal/kvcache"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/policy"
	"slinfer/internal/scenario"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// Re-exported types.
type (
	// Config selects a serving system and its policies.
	Config = core.Config
	// Controller orchestrates one serving system (advanced use).
	Controller = core.Controller
	// Model describes a hosted LLM.
	Model = model.Model
	// NodeSpec describes one cluster node.
	NodeSpec = hwsim.NodeSpec
	// Trace is a multi-model request stream.
	Trace = workload.Trace
	// Request is one trace entry.
	Request = workload.Request
	// Dataset is a token-length distribution.
	Dataset = workload.Dataset
	// Report is a run's derived metrics. Report.Canonical renders it as
	// byte-stable text for diffing deterministic runs.
	Report = metrics.Report
	// TraceMeta is the provenance recorded in a saved trace's header.
	TraceMeta = traceio.Meta
	// ReplayOptions configures Replay/ReplayFile.
	ReplayOptions = experiments.ReplayOptions
	// TieredPrefixConfig sizes the tiered prefix-sharing KV store
	// (Config.PrefixCache): a GPU tier backed by a CPU spill tier, indexed
	// by token-block hash chains. The zero value disables it; Enabled with
	// zero sizes selects the defaults (4 GiB GPU, 4x host). Only requests
	// carrying a PrefixKey participate. See examples/prefixcache.
	TieredPrefixConfig = kvcache.TieredConfig
)

// Policy layer: a serving scheme is a composition of three policies over
// the thin controller. Set them on Config (Placement, Preemption,
// KeepAlivePolicy) to build schemes beyond the paper's presets. The
// presets set KeepAlivePolicy themselves; nil Placement and Preemption
// compose the preset behavior from the scalar knobs. See DESIGN.md and
// examples/custompolicy.
type (
	// PlacementPolicy decides where new instances land and how node
	// compute is carved for them.
	PlacementPolicy = policy.PlacementPolicy
	// PreemptionPolicy decides whether neighbours are preempted so an
	// existing instance can absorb a request in place.
	PreemptionPolicy = policy.PreemptionPolicy
	// KeepAlivePolicy decides how long idle instances are retained.
	KeepAlivePolicy = policy.KeepAlivePolicy
	// PolicyHost is the controller surface custom policies program
	// against.
	PolicyHost = policy.Host
	// SharingMode selects how node compute is divided among instances.
	SharingMode = policy.SharingMode

	// BinPackPlacement is the paper's best-fit bin-packing placement,
	// parameterized by sharing mode.
	BinPackPlacement = policy.BinPack
	// SLOPreservingPreemption is the §VIII-A consolidation policy.
	SLOPreservingPreemption = policy.SLOPreserving
	// NoPreemption disables consolidation.
	NoPreemption = policy.NoPreemption
	// FixedKeepAlive reclaims idle instances after a constant window.
	FixedKeepAlive = policy.FixedKeepAlive
	// PinKeepAlive never reclaims idle instances.
	PinKeepAlive = policy.Pin
)

// Sharing modes.
const (
	Exclusive     = policy.Exclusive
	StaticSharing = policy.Static
	Elastic       = policy.Elastic
)

// Device kinds for Report lookups.
const (
	CPU = hwsim.CPU
	GPU = hwsim.GPU
)

// Model catalog (§IX-A).
var (
	Llama32_3B     = model.Llama32_3B
	Llama2_7B      = model.Llama2_7B
	Llama2_13B     = model.Llama2_13B
	CodeLlama34B   = model.CodeLlama34B
	Llama31_8B     = model.Llama31_8B
	DeepSeekQwen7B = model.DeepSeekQwen7B
	Codestral22B   = model.Codestral22B
)

// Datasets (§IX-A, §IX-I1).
var (
	AzureConv = workload.AzureConv
	AzureCode = workload.AzureCode
	HumanEval = workload.HumanEval
	ShareGPT  = workload.ShareGPT
	LongBench = workload.LongBench
)

// System presets.
var (
	// SLINFER is the full system (§V-VIII).
	SLINFER = core.SLINFER
	// Sllm is the ServerlessLLM-style exclusive-GPU baseline.
	Sllm = core.Sllm
	// SllmC adds CPU serving to Sllm.
	SllmC = core.SllmC
	// SllmCS adds static half-node time-sharing to SllmC.
	SllmCS = core.SllmCS
	// NEOPlus is the NEO-style CPU-assist comparison (Figure 29).
	NEOPlus = core.NEOPlus
)

// Testbed returns the paper's evaluation cluster shape: nCPU 32-core AMX
// CPU nodes plus nGPU A100-80GB nodes.
func Testbed(nCPU, nGPU int) []NodeSpec { return hwsim.Testbed(nCPU, nGPU) }

// Replicas derives n independently-hosted replicas of a base model.
func Replicas(base Model, n int) []Model { return model.Replicas(base, n) }

// namesAndMaxContext returns the models' names, in order, and the longest
// context among them: every trace generator's model list and input cap.
func namesAndMaxContext(models []Model) (names []string, maxCtx int) {
	names = make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
		maxCtx = max(maxCtx, m.MaxContext)
	}
	return names, maxCtx
}

// AzureTrace generates an Azure-Serverless-style trace over the models:
// Zipf popularity, bursty arrivals, AzureConv token lengths.
func AzureTrace(models []Model, minutes float64, seed uint64) Trace {
	names, maxCtx := namesAndMaxContext(models)
	return workload.Generate(workload.TraceConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		Dataset:    workload.AzureConv,
		Seed:       seed,
		MaxInput:   maxCtx,
	})
}

// BurstGPTTrace generates a BurstGPT-style trace (§IX-I2): a centralized
// bursty stream at ~rps aggregate requests/second, split across models by a
// Pareto distribution.
func BurstGPTTrace(models []Model, minutes, rps float64, seed uint64) Trace {
	names, maxCtx := namesAndMaxContext(models)
	return workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		RPS:        rps,
		Seed:       seed,
		MaxInput:   maxCtx,
	})
}

// CustomTrace generates a trace with full control over the workload.
func CustomTrace(cfg workload.TraceConfig) Trace { return workload.Generate(cfg) }

// ChatTrace generates a multi-turn chat trace: sessions grow a shared
// system-prompt template plus their own conversation history turn by turn,
// and every request carries the PrefixKey that lets the tiered prefix store
// (Config.PrefixCache) serve the recurring prefix from cache.
func ChatTrace(models []Model, minutes float64, seed uint64) Trace {
	names, maxCtx := namesAndMaxContext(models)
	return workload.GenerateChat(workload.ChatConfig{
		ModelNames: names,
		Duration:   sim.Duration(minutes) * sim.Minute,
		Seed:       seed,
		MaxInput:   maxCtx,
	})
}

// WithPrefixCache returns a system variant with the tiered prefix-sharing
// KV store enabled at its default sizing; set Config.PrefixCache directly
// for custom tier capacities.
func WithPrefixCache(cfg Config) Config { return baseline.WithPrefixCache(cfg) }

// Telemetry layer (internal/telemetry): deterministic request span traces,
// sim-time metric streams, and a flight recorder, recorded as a pure
// function of (config, trace, seed) — exports are byte-identical across
// reruns, worker counts, and arena reuse. See DESIGN.md "Telemetry" and
// examples/timeline.
type (
	// Telemetry is one run's observability sink: a recorder per shard plus
	// a fleet front-door recorder. Thread it through Config.Telemetry
	// (WithTelemetry), ReplayOptions.Telemetry, FleetConfig.Telemetry, or
	// ScenarioCell.Telemetry, then export after the run.
	Telemetry = telemetry.Trace
	// TelemetryRecorder is one shard's event/sample buffer.
	TelemetryRecorder = telemetry.Recorder
	// TelemetryOptions selects the pillars: Spans, Series, FlightRing.
	TelemetryOptions = telemetry.Options
)

// NewTelemetry returns an empty telemetry sink recording per opts.
func NewTelemetry(opts TelemetryOptions) *Telemetry { return telemetry.New(opts) }

// WithTelemetry returns a system variant whose controller records onto rec
// (typically t.Recorder(0) for single-controller runs). Telemetry is
// strictly observational: the run's Report is byte-identical either way.
func WithTelemetry(cfg Config, rec *TelemetryRecorder) Config {
	cfg.Telemetry = rec
	return cfg
}

// SpanExportChrome writes t's span trace as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing (shards are process rows,
// instances thread rows).
func SpanExportChrome(w io.Writer, t *Telemetry) error { return t.ExportChrome(w) }

// SeriesCSV writes t's sim-time metric stream as CSV (queue depth, active
// batch, KV tier bytes, goodput, retry backlog per sample).
func SeriesCSV(w io.Writer, t *Telemetry) error { return t.SeriesCSV(w) }

// Trace I/O and replay: a recorded trace is a first-class simulator input.
// SaveTrace persists the request sequence as versioned JSONL; LoadTrace
// streams it back; the transformers derive scenario families from one
// recording; Replay drives any preset from it. Replaying a saved trace is
// byte-identical (Report.Canonical) to running the in-memory trace it was
// saved from. See DESIGN.md "Trace I/O and replay".

// SaveTrace writes a trace to path as versioned JSONL with provenance.
func SaveTrace(path string, tr Trace, meta TraceMeta) error {
	return traceio.SaveFile(path, tr, meta)
}

// LoadTrace reads a JSONL trace and its recorded provenance from path.
func LoadTrace(path string) (Trace, TraceMeta, error) { return traceio.LoadFile(path) }

// ScaleRate changes a trace's offered load by factor (thinning below 1,
// superposing jittered replicas above), deterministically in seed.
func ScaleRate(tr Trace, factor float64, seed uint64) Trace {
	return traceio.ScaleRate(tr, factor, seed)
}

// CompressTime speeds a trace up by factor (arrivals and duration shrink).
func CompressTime(tr Trace, factor float64) Trace { return traceio.CompressTime(tr, factor) }

// SubsetModels keeps only the named models' requests.
func SubsetModels(tr Trace, names ...string) Trace { return traceio.SubsetModels(tr, names...) }

// MergeTraces superposes traces onto one timeline.
func MergeTraces(traces ...Trace) Trace { return traceio.Merge(traces...) }

// Replay drives a system preset end-to-end over an existing request
// sequence — recorded, loaded, or transformed — and returns its report.
func Replay(tr Trace, opt ReplayOptions) (Report, error) { return experiments.Replay(tr, opt) }

// ReplayFile replays a saved JSONL trace, binding model identities from the
// recorded header unless overridden in opt.
func ReplayFile(path string, opt ReplayOptions) (Report, error) {
	return experiments.ReplayFile(path, opt)
}

// Scenario matrix & invariants: the verification subsystem. A ScenarioGrid
// composes axes (workload × transform × topology × system × SLO × seed)
// into cells; RunScenarios fans them across the experiment worker pool with
// the always-on invariant suite attached to every cell. AttachInvariants
// wires the same suite into a hand-built controller. See DESIGN.md
// "Scenario matrix & invariants" and `cmd/slinfer-verify`.
type (
	// ScenarioGrid is a declarative scenario matrix (cross product of axes).
	ScenarioGrid = scenario.Grid
	// ScenarioCell is one fully specified simulation of a grid.
	ScenarioCell = scenario.Cell
	// ScenarioResult is one cell's report plus detected violations.
	ScenarioResult = scenario.CellResult
	// ScenarioWorkload is the workload-shape axis value.
	ScenarioWorkload = scenario.Workload
	// ScenarioTransform is the trace-transform axis value.
	ScenarioTransform = scenario.Transform
	// ScenarioTopology is the cluster-topology axis value.
	ScenarioTopology = scenario.Topology
	// ScenarioSLO is the SLO-class axis value; a zero Objective selects the
	// paper's default TTFT/TPOT formula.
	ScenarioSLO = scenario.SLOClass
	// InvariantSuite is one run's attached checker set.
	InvariantSuite = invariants.Suite
	// InvariantViolation is one detected invariant breach.
	InvariantViolation = invariants.Violation
	// ControllerProbe observes the controller's one lifecycle event stream
	// (advanced use: custom witnesses beyond the stock invariant suite).
	// Observe receives every event after the telemetry recorder (see
	// WithTelemetry) has stored it; RunFinished receives the final report.
	ControllerProbe = core.Probe
)

// SmokeGrid returns the CI smoke matrix (384 two-minute cells; fleet and
// chaos axes included).
func SmokeGrid() ScenarioGrid { return scenario.Smoke() }

// NightlyGrid returns the deep verification matrix (960 cells).
func NightlyGrid() ScenarioGrid { return scenario.Nightly() }

// RunScenarios evaluates every cell of a grid with invariants attached,
// fanning cells across the experiment worker pool.
func RunScenarios(g ScenarioGrid) []ScenarioResult { return scenario.RunGrid(g) }

// RunScenario evaluates one cell with invariants attached.
func RunScenario(c ScenarioCell) ScenarioResult { return scenario.RunCell(c) }

// AttachInvariants wires the always-on checker suite — event-clock
// monotonicity, memory-ledger conservation, KV accounting, request
// lifecycle, SLO bookkeeping — into a controller built with NewController.
// Call before Run; query the returned suite afterwards.
func AttachInvariants(c *Controller) *InvariantSuite { return invariants.Attach(c) }

// Fleet layer: N independent controller shards — each its own deterministic
// simulation over its own (possibly heterogeneous) topology — behind a
// front door with three pluggable decision points (routing, admission,
// autoscaling) in epoch-synchronized co-simulation. A fleet run is a pure
// function of (config, trace) regardless of FleetConfig.Workers. See
// DESIGN.md "Fleet layer" and examples/fleet.
type (
	// FleetConfig parameterizes a fleet run (shards, policies, epoch).
	FleetConfig = fleet.Config
	// FleetShard describes one shard: topology plus optional per-shard
	// system override.
	FleetShard = fleet.ShardSpec
	// FleetResult is a fleet run's outcome: merged report, per-shard
	// reports and replayable trace slices, the rejection ledger, and any
	// invariant violations.
	FleetResult = fleet.Result
	// FleetSnapshot is the per-shard state routing decisions see (always
	// one epoch stale — the determinism contract).
	FleetSnapshot = fleet.Snapshot
	// FleetEpochState is the front door's view while routing one epoch.
	FleetEpochState = fleet.EpochState
	// FleetRejection is one shed-request ledger entry.
	FleetRejection = fleet.Rejection
	// FleetRoutingPolicy picks the shard an accepted request lands on.
	FleetRoutingPolicy = fleet.RoutingPolicy
	// FleetAdmissionPolicy sheds arrivals at the front door.
	FleetAdmissionPolicy = fleet.AdmissionPolicy
	// FleetAutoscalePolicy resizes the active shard set per epoch.
	FleetAutoscalePolicy = fleet.AutoscalePolicy
	// ScenarioFleet is the scenario grid's fleet axis value.
	ScenarioFleet = scenario.FleetAxis
)

// UniformFleet returns n identical shards over the paper's testbed shape.
func UniformFleet(n, cpu, gpu int) []FleetShard { return fleet.UniformShards(n, cpu, gpu) }

// RunFleet executes a fleet over a trace: requests are admitted and routed
// in global arrival order on previous-epoch shard snapshots, shards advance
// in parallel between epoch barriers, and the per-shard reports merge via
// MergeReports. Deterministic in (cfg, tr).
func RunFleet(cfg FleetConfig, tr Trace) FleetResult { return fleet.Run(cfg, tr) }

// MergeReports folds per-shard reports into one aggregate: counters sum and
// percentiles are recomputed from the pooled sample CDFs.
func MergeReports(system string, duration sim.Duration, reports ...Report) Report {
	return metrics.MergeReports(system, duration, reports...)
}

// PartitionTrace splits a trace into n slices (the inverse of MergeTraces):
// assign maps each request to its slice, negative drops it. Each slice is a
// valid standalone trace on the original timeline.
func PartitionTrace(tr Trace, n int, assign func(Request) int) []Trace {
	return traceio.Partition(tr, n, assign)
}

// Stock fleet policies.

// RoundRobinRouting cycles arrivals across the active shards.
func RoundRobinRouting() FleetRoutingPolicy { return new(fleet.RoundRobin) }

// LeastOutstandingRouting routes to the least-loaded active shard.
func LeastOutstandingRouting() FleetRoutingPolicy { return fleet.LeastOutstanding{} }

// ModelAffinityRouting pins each model to a shard by rendezvous hashing.
func ModelAffinityRouting() FleetRoutingPolicy { return fleet.ModelAffinity{} }

// KVAffinityRouting routes prefix-keyed requests to the shard holding the
// most resident bytes for their prefix root (end-of-epoch snapshots), with
// rendezvous hashing as the cold-prefix and keyless fallback. Pair with a
// prefix-enabled system (WithPrefixCache) and a chat-style trace.
func KVAffinityRouting() FleetRoutingPolicy { return &fleet.KVAffinity{} }

// AcceptAllAdmission admits every arrival.
func AcceptAllAdmission() FleetAdmissionPolicy { return fleet.AcceptAll{} }

// MaxOutstandingAdmission sheds arrivals past perShard outstanding requests
// per active shard, recording each in the rejection ledger.
func MaxOutstandingAdmission(perShard int) FleetAdmissionPolicy {
	return fleet.MaxOutstanding{PerShard: perShard}
}

// FixedFleetScale keeps every shard active.
func FixedFleetScale() FleetAutoscalePolicy { return fleet.FixedFleet{} }

// LoadThresholdScale grows/shrinks the active shard set one shard per epoch
// around per-shard outstanding-load watermarks (low < high; min bounds the
// shrink).
func LoadThresholdScale(low, high, min int) FleetAutoscalePolicy {
	return fleet.LoadThreshold{High: high, Low: low, Min: min}
}

// Fault injection: a FaultPlan schedules typed events — shard crash,
// recover, drain, slowdown, KV-tier degrade — on the fleet's virtual
// timeline (FleetConfig.Faults). Plans are JSONL-serializable, pure
// functions of their inputs, and quantized onto the epoch grid, so a chaos
// run is byte-identical across repeats and worker counts. See DESIGN.md
// "Fault injection & recovery" and examples/chaos.
type (
	// FaultPlan is a deterministic schedule of fault events.
	FaultPlan = faults.Plan
	// FaultEvent is one typed fault on the fleet timeline.
	FaultEvent = faults.Event
	// FaultKind enumerates the fault event types.
	FaultKind = faults.Kind
	// FleetRetryPolicy decides the fate of requests pulled off crashed
	// shards (FleetConfig.Retry).
	FleetRetryPolicy = fleet.RetryPolicy
)

// Fault event kinds.
const (
	FaultShardCrash    = faults.ShardCrash
	FaultShardRecover  = faults.ShardRecover
	FaultShardDrain    = faults.ShardDrain
	FaultSlowdown      = faults.Slowdown
	FaultKVTierDegrade = faults.KVTierDegrade
)

// Rejection-ledger reasons the fleet itself emits (FleetRejection.Reason).
const (
	RejectionFleetOverload  = fleet.ReasonFleetOverload
	RejectionRetryExhausted = fleet.ReasonRetryExhausted
	RejectionNoHealthyShard = fleet.ReasonNoHealthyShard
)

// FaultPresetNames lists the seeded chaos presets FaultPreset accepts.
func FaultPresetNames() []string { return faults.PresetNames }

// FaultPreset builds a seeded fault plan ("crash", "rolling-restart",
// "straggler", "kvdegrade") for a fleet of the given shape — a pure
// function of its arguments. Unknown names return nil.
func FaultPreset(name string, shards int, dur sim.Duration, seed int64) *FaultPlan {
	return faults.Preset(name, shards, dur, seed)
}

// LoadFaultPlan reads a JSONL fault plan from disk.
func LoadFaultPlan(path string) (*FaultPlan, error) { return faults.LoadFile(path) }

// SaveFaultPlan writes a fault plan as JSONL.
func SaveFaultPlan(w io.Writer, p *FaultPlan) error { return faults.Save(w, p) }

// BudgetedRetryPolicy re-drives each request pulled off a crashed shard up
// to budget times with a linear backoff of backoff epochs per prior
// attempt; past the budget the request lands in the rejection ledger as
// retry-exhausted.
func BudgetedRetryPolicy(budget, backoff int) FleetRetryPolicy {
	return fleet.BudgetedRetry{Budget: budget, Backoff: backoff}
}

// Run executes one serving system over a cluster and trace, returning the
// metrics report. Runs are deterministic for a given (config, trace) pair.
func Run(cfg Config, specs []NodeSpec, models []Model, tr Trace) Report {
	s := sim.New()
	c := core.New(s, specs, models, cfg)
	return c.Run(tr)
}

// NewController builds a controller for step-by-step simulations (submit
// individual requests, inspect instances). Most callers want Run.
func NewController(cfg Config, specs []NodeSpec, models []Model) (*Controller, *sim.Simulator) {
	s := sim.New()
	return core.New(s, specs, models, cfg), s
}
