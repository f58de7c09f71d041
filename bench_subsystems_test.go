// Per-subsystem micro/meso benchmarks: unlike the BenchmarkExp_* suite
// (which regenerates whole paper artifacts), these isolate the hot paths a
// scale/speed PR actually touches — the DES event loop, the memctl ledger,
// trace decode, end-to-end replay, and a scenario cell with the invariant
// suite attached (its delta over the plain cell is the checker overhead).
// CI runs them on every push and emits BENCH_matrix.json (cmd/benchfmt),
// so the performance trajectory is recorded alongside correctness.
//
// CI times a single round (-benchtime 1x) while BENCH_baseline.json is
// recorded at the default benchtime, so every bench runs one untimed
// warm-up round before its timer: the timed round then sees the steady
// state (grown pools, scratch and caches) the baseline measured, not
// first-use growth.
package slinfer

import (
	"bytes"
	"fmt"
	"testing"

	"slinfer/internal/compute"
	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/experiments"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/scenario"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// BenchmarkSub_SimEventLoop measures raw event throughput: a self-renewing
// chain of timers over a busy heap.
func BenchmarkSub_SimEventLoop(b *testing.B) {
	const chain = 64 // concurrent timer chains in the heap
	b.ReportAllocs()
	round := func() {
		s := sim.New()
		fired := 0
		var tick func()
		tick = func() {
			fired++
			if fired < 100*chain {
				s.After(sim.Millisecond, tick)
			}
		}
		for c := 0; c < chain; c++ {
			s.After(sim.Duration(c)*sim.Millisecond, tick)
		}
		s.Run()
		if fired < 100*chain {
			b.Fatal("event chain stalled")
		}
	}
	round() // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(100*chain*b.N)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkSub_MemctlLedger measures ledger op throughput on the default
// (pooled) path: ops come from the node's free-list through AcquireOp and
// go straight to Demand, and each round reuses the simulator and ledger
// through their Reset lifecycles — the arena steady state, where the
// admit/execute/complete/station churn itself allocates nothing.
func BenchmarkSub_MemctlLedger(b *testing.B) {
	b.ReportAllocs()
	const ops = 256
	s := sim.New()
	nm := memctl.New(s, "bench", 64<<30)
	demand := func(owner string, from, to int64) {
		op := nm.AcquireOp()
		op.Kind, op.Owner = memctl.ResizeKV, owner
		op.From, op.To, op.Duration = from, to, sim.Millisecond
		if !nm.Demand(op) {
			nm.ReleaseOp(op)
		}
	}
	round := func() {
		s.Reset()
		nm.Reset("bench", 64<<30)
		for j := 0; j < ops; j++ {
			owner := "a/kv"
			if j%2 == 1 {
				owner = "b/kv"
			}
			grow := int64(40 << 30)
			demand(owner, 0, grow)
			s.RunUntil(s.Now().Add(2 * sim.Millisecond))
			demand(owner, grow, 0)
			s.RunUntil(s.Now().Add(2 * sim.Millisecond))
		}
		if err := nm.CheckInvariants(); err != nil {
			b.Fatal(err)
		}
	}
	round() // untimed warm-up: grows the ledger's and simulator's pools
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(2*ops*b.N)/b.Elapsed().Seconds(), "ops/s")
}

// BenchmarkSub_ShadowValidate measures the §VI-C shadow-validation kernel
// alone, on views built once: "schedule" projects three A100 llama-2-7b
// instances carrying 21 request views through the virtual schedule to
// acceptance; "aggregate-reject" ends in the case-3 aggregate-decode check
// across eight colocated CPU instances. Each op is a round of validations;
// both must run allocation-free.
func BenchmarkSub_ShadowValidate(b *testing.B) {
	// Validations per timed round: enough that a single round (CI's
	// -benchtime 1x) is not dominated by timer overhead.
	const perRound = 256
	reg := perfmodel.NewRegistry(256)
	build := func(class hwsim.DeviceClass, n, running, waiting int) []*engine.Instance {
		insts := make([]*engine.Instance, n)
		for i := range insts {
			inst := &engine.Instance{
				ID: i, Model: model.Llama2_7B, Class: class, Share: 1, NodeIdxs: []int{0},
				Profile: reg.Get(class, model.Llama2_7B, 1),
				Cache:   kvcache.NewCache(model.Llama2_7B, 1),
				State:   engine.Active,
			}
			inst.Cache.SetCapacity(60 * model.GiB)
			for j := 0; j < running+waiting; j++ {
				r := engine.NewRequest(workload.Request{
					ID: int64(100*i + j), ModelName: model.Llama2_7B.Name,
					Arrival: sim.Time(j) * 0.05, InputLen: 256 + 128*j, OutputLen: 200,
				})
				inst.Admit(r)
				if j < running {
					inst.CompletePrefill(r, 0.5)
				}
			}
			insts[i] = inst
		}
		return insts
	}
	newReq := func(in int) compute.ReqView {
		return compute.ViewRequest(engine.NewRequest(workload.Request{
			ID: 9999, ModelName: model.Llama2_7B.Name, Arrival: 0.6, InputLen: in, OutputLen: 100,
		}))
	}
	cases := []struct {
		name  string
		insts []*engine.Instance
		req   compute.ReqView
		want  compute.Reason
	}{
		{"schedule", build(hwsim.A100, 3, 5, 2), newReq(1024), compute.OK},
		{"aggregate-reject", build(hwsim.XeonGen4, 8, 1, 0), newReq(512), compute.AggregateDecode},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			v := compute.NewValidator()
			views, candIdx := v.ViewInstances(tc.insts, nil, tc.insts[0])
			validate := func() {
				if got := v.Validate(0.6, 0.6, views, candIdx, tc.req, slo.DefaultTPOT); got != tc.want {
					b.Fatalf("validation = %v, want %v", got, tc.want)
				}
			}
			validate() // untimed warm-up: grows the projection scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < perRound; j++ {
					validate()
				}
			}
			b.ReportMetric(float64(perRound*b.N)/b.Elapsed().Seconds(), "validations/s")
		})
	}
}

// benchTrace is the shared small workload for the replay benchmarks.
func benchTrace() ([]model.Model, workload.Trace) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	return models, workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 4 * sim.Minute, Seed: 17,
		Dataset: workload.AzureConv,
	})
}

// BenchmarkSub_TraceDecode measures streaming decode throughput of the
// canonical JSONL format.
func BenchmarkSub_TraceDecode(b *testing.B) {
	_, tr := benchTrace()
	var buf bytes.Buffer
	if err := traceio.Save(&buf, tr, traceio.Meta{}); err != nil {
		b.Fatal(err)
	}
	raw := buf.Bytes()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	round := func() {
		got, _, err := traceio.Load(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		if len(got.Requests) != len(tr.Requests) {
			b.Fatal("short decode")
		}
	}
	round() // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(len(tr.Requests)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkSub_ReplayThroughput measures end-to-end simulated requests per
// wall-clock second: the number every controller/engine optimization moves.
func BenchmarkSub_ReplayThroughput(b *testing.B) {
	_, tr := benchTrace()
	round := func() {
		rep, err := experiments.Replay(tr, experiments.ReplayOptions{
			System: "SLINFER", CPUNodes: 2, GPUNodes: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		if rep.Total == 0 {
			b.Fatal("empty replay")
		}
	}
	round() // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(len(tr.Requests)*b.N)/b.Elapsed().Seconds(), "reqs/s")
}

// BenchmarkSub_ScenarioCell runs one smoke cell with the full invariant
// suite attached; compare against BenchmarkSub_ReplayThroughput for the
// always-on checker overhead.
func BenchmarkSub_ScenarioCell(b *testing.B) {
	cell := scenario.Smoke().Cells()[0]
	b.ReportAllocs()
	round := func() {
		r := scenario.RunCell(cell)
		if !r.Ok() {
			b.Fatalf("cell failed: %v %v", r.Err, r.Violations)
		}
	}
	round() // untimed warm-up
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkSub_PrefixLookup measures tiered prefix-store throughput on a
// steady-state chat-shaped key population: sessions insert their growing
// prefixes and look them up next turn, with tier capacities tight enough
// that the GPU tier continuously spills to the CPU tier and hits promote
// back. The hitrate metric keeps the measured regime honest — a workload
// drifting to all-miss (or all-hit in GPU) would make the ns/op
// incomparable across runs.
func BenchmarkSub_PrefixLookup(b *testing.B) {
	const (
		sessions = 64
		turns    = 8
		perTok   = int64(1 << 19) // ~0.5 MiB/token, 7B-class
	)
	cfg := kvcache.TieredConfig{
		Enabled:  true,
		GPUBytes: 2048 * 16 * perTok, // ~2k tokens of GPU tier: forces spill
		CPUBytes: 8192 * 16 * perTok,
	}.WithDefaults()
	ts := kvcache.NewTieredStore(cfg)
	keys := make([]string, sessions)
	for s := range keys {
		keys[s] = fmt.Sprintf("tpl%d@256/sess%d", s%4, s)
	}
	b.ReportAllocs()
	var lookups, hitTok, totTok int64
	round := func() {
		ts.Reset(cfg)
		for turn := 1; turn <= turns; turn++ {
			for s := 0; s < sessions; s++ {
				tokens := 256 + turn*192
				hit, _ := ts.Lookup("bench-model", keys[s], tokens, perTok)
				lookups++
				hitTok += int64(hit)
				totTok += int64(tokens)
				ts.Insert("bench-model", keys[s], tokens, perTok)
			}
		}
		if !ts.Ledger.Conserved() {
			b.Fatal("tier ledger out of conservation")
		}
	}
	round() // untimed warm-up
	lookups, hitTok, totTok = 0, 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	b.ReportMetric(float64(lookups)/b.Elapsed().Seconds(), "lookups/s")
	b.ReportMetric(float64(hitTok)/float64(totTok), "hitrate")
}

// BenchmarkSub_TelemetrySpans measures the telemetry layer on an
// end-to-end replay. The "enabled" case arms all three pillars and reports
// recording throughput in spans/s; "disabled" is the identical run with no
// recorder wired — its delta against BenchmarkSub_ReplayThroughput is the
// cost of merely having the hooks in the controller, which the layer's
// contract caps at one nil check per hook (≤2%, zero extra allocs).
func BenchmarkSub_TelemetrySpans(b *testing.B) {
	_, tr := benchTrace()
	for _, bc := range []struct {
		name string
		on   bool
	}{{"enabled", true}, {"disabled", false}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			round := func() (spans int64) {
				opt := experiments.ReplayOptions{
					System: "SLINFER", CPUNodes: 2, GPUNodes: 2,
				}
				var telem *telemetry.Trace
				if bc.on {
					telem = telemetry.New(telemetry.Options{
						Spans: true, Series: true,
						FlightRing: telemetry.DefaultFlightRing,
					})
					opt.Telemetry = telem.Recorder(0)
				}
				rep, err := experiments.Replay(tr, opt)
				if err != nil {
					b.Fatal(err)
				}
				if rep.Total == 0 {
					b.Fatal("empty replay")
				}
				if bc.on {
					n := telem.EventCount()
					if n == 0 {
						b.Fatal("enabled run recorded no spans")
					}
					spans = int64(n)
				}
				return spans
			}
			round() // untimed warm-up
			var spans int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				spans += round()
			}
			if bc.on {
				b.ReportMetric(float64(spans)/b.Elapsed().Seconds(), "spans/s")
			}
		})
	}
}

// BenchmarkSub_FleetEpoch measures epoch-synchronized co-simulation
// throughput: total DES events executed across all shards per wall-clock
// second. The 1shard case is the sequential reference — same trace, same
// front door, one shard taking everything; 4shard splits the identical
// workload across four shards advancing in parallel between epoch
// barriers, so the events/s ratio is the fleet layer's aggregate speedup.
func BenchmarkSub_FleetEpoch(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 24)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	// A fleet-scale workload: 24 models at ~4 rps aggregate. One 1c1g
	// shard is far past saturation here — its pending queue and instance
	// lists are what the controller scans per event — while each of the
	// four shards stays in its operating range, which is exactly the
	// scale-out case the fleet layer exists for.
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 4 * sim.Minute, RPS: 4, Seed: 17,
		Dataset: workload.AzureConv,
	})
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			round := func() uint64 {
				res := fleet.Run(fleet.Config{
					System: core.SLINFER(),
					Shards: fleet.UniformShards(shards, 1, 1),
					Models: models,
					Seed:   17,
				}, tr)
				if res.Accepted != int64(len(tr.Requests)) {
					b.Fatalf("fleet shed %d requests", int64(len(tr.Requests))-res.Accepted)
				}
				if len(res.Violations) > 0 {
					b.Fatalf("fleet violations: %v", res.Violations)
				}
				return res.EventsFired
			}
			round() // untimed warm-up
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += round()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSub_FleetEpochWide measures wide-fleet epoch throughput at the
// nightly grid's shard shape (2c2g per shard, least-outstanding routing) at
// 16 and 64 shards: the whole-grid amortization case, where every shard
// borrows a pooled arena and a full fleet's worth of controllers is
// constructed, run, and recycled per iteration.
func BenchmarkSub_FleetEpochWide(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 32)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 2 * sim.Minute, RPS: 16, Seed: 17,
		Dataset: workload.AzureConv,
	})
	for _, shards := range []int{16, 64} {
		b.Run(fmt.Sprintf("%dshard", shards), func(b *testing.B) {
			b.ReportAllocs()
			round := func() uint64 {
				res := fleet.Run(fleet.Config{
					System:  core.SLINFER(),
					Shards:  fleet.UniformShards(shards, 2, 2),
					Models:  models,
					Routing: fleet.LeastOutstanding{},
					Seed:    17,
				}, tr)
				if res.Accepted != int64(len(tr.Requests)) {
					b.Fatalf("fleet shed %d requests", int64(len(tr.Requests))-res.Accepted)
				}
				if len(res.Violations) > 0 {
					b.Fatalf("fleet violations: %v", res.Violations)
				}
				return res.EventsFired
			}
			round() // untimed warm-up
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += round()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkSub_FaultEpoch measures the fault-injection machinery on a
// 4-shard fleet. The "empty" case runs with no fault plan — identical
// workload and shape to BenchmarkSub_FleetEpoch/4shard — so its delta
// against that benchmark is the cost of merely having the chaos hooks in
// the epoch loop (which must be ~nothing: all of it is gated on a
// non-empty plan). The "crash" case injects one crash/recover cycle and
// pays for the pull, re-drive, and segment merge.
func BenchmarkSub_FaultEpoch(b *testing.B) {
	models := model.Replicas(model.Llama2_7B, 24)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateBurstGPT(workload.BurstGPTConfig{
		ModelNames: names, Duration: 4 * sim.Minute, RPS: 4, Seed: 17,
		Dataset: workload.AzureConv,
	})
	crash := &faults.Plan{Events: []faults.Event{
		{At: sim.Time(0).Add(tr.Duration / 3), Kind: faults.ShardCrash, Shard: 1},
		{At: sim.Time(0).Add(2 * tr.Duration / 3), Kind: faults.ShardRecover, Shard: 1},
	}}
	for _, bc := range []struct {
		name string
		plan *faults.Plan
	}{{"empty", nil}, {"crash", crash}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			round := func() uint64 {
				res := fleet.Run(fleet.Config{
					System: core.SLINFER(),
					Shards: fleet.UniformShards(4, 1, 1),
					Models: models,
					Seed:   17,
					Faults: bc.plan,
				}, tr)
				if len(res.Violations) > 0 {
					b.Fatalf("fleet violations: %v", res.Violations)
				}
				if bc.plan == nil && res.Accepted != int64(len(tr.Requests)) {
					b.Fatalf("fault-free fleet shed %d requests", int64(len(tr.Requests))-res.Accepted)
				}
				if bc.plan != nil && res.Report.FaultEvents != 2 {
					b.Fatalf("crash plan applied %d events, want 2", res.Report.FaultEvents)
				}
				return res.EventsFired
			}
			round() // untimed warm-up
			var events uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				events += round()
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
