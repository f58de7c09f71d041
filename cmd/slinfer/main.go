// Command slinfer regenerates the paper's tables and figures, or replays a
// recorded trace through one serving system.
//
// Usage:
//
//	slinfer -list                      # list experiments
//	slinfer -exp fig22b                # run one experiment (paper-scale)
//	slinfer -exp fig22a,fig22b,tab03   # run a sweep of experiments
//	slinfer -exp all -quick            # run everything at reduced scale
//	slinfer -exp all -parallel 8       # fan simulation cells over 8 workers
//	slinfer -trace t.jsonl -system SLINFER   # replay a saved JSONL trace
//	slinfer -trace t.jsonl -shards 4 -routing least   # replay through a fleet
//
// Every (experiment, config, seed) cell is an independent deterministic
// simulation, so -parallel is a pure wall-clock optimization: the printed
// tables are identical to a serial run — except fig33, whose overhead
// columns measure host wall-clock time and pick up contention from
// concurrent cells; regenerate it with -parallel 1 for clean numbers.
//
// Replay mode (-trace, recorded with `slinfer-trace -o`) drives the chosen
// preset end-to-end from the on-disk request sequence and prints the
// canonical report: replaying the same file twice — or replaying versus
// running the in-memory trace it was saved from — is byte-identical.
//
// Fleet replay (-shards N > 1) runs the trace through N controller shards
// — each a -cpu/-gpu testbed of its own — behind the front door
// (internal/fleet): -routing picks the routing policy (rr, least,
// affinity, kvaffinity), -admit-limit > 0 sheds past that many outstanding
// requests per active shard, and -epoch sets the co-simulation window. The
// output is the merged canonical report plus one summary line per shard; it
// is byte-identical across runs and across -parallel settings.
//
// -prefix overlays the tiered prefix-sharing KV store onto the chosen
// system (GPU tier sized by -prefix-gpu-mb, host spill tier by
// -prefix-cpu-mb, token-block granularity by -prefix-block; zero keeps the
// defaults). It only changes behavior on traces whose requests carry
// prefix keys — record one with slinfer-trace -gen chat.
//
// Fault injection (fleet replay only): -chaos <preset> schedules a seeded
// fault plan (crash, rolling-restart, straggler, kvdegrade — seeded from
// the trace seed, so reruns are byte-identical), -faults <plan.jsonl>
// replays an explicit plan (record one with faults.Save), and
// -retry-budget bounds how many times a request pulled off a crashed shard
// is re-driven before it lands in the rejection ledger as retry-exhausted.
//
// Telemetry (replay modes only): -timeline <file> writes a Chrome
// trace-event JSON span timeline of the replay (load it in Perfetto or
// chrome://tracing: shards render as process rows, instances as thread
// rows), -series <file> writes the sim-time metric stream as CSV (queue
// depth, active batch, KV tier bytes, per-shard goodput, retry backlog),
// and -flightrec arms a fixed-size flight recorder whose tail is dumped to
// stderr when a fleet replay ends with invariant violations. All three are
// deterministic: the exported bytes are identical across reruns and
// -parallel/fleet worker settings, and a replay without them is
// byte-identical to one before the flags existed.
//
// Flag combinations are validated up front: contradictions (-routing
// kvaffinity without -prefix, fleet-only flags without -shards > 1, -chaos
// together with -faults, prefix sizing without -prefix, telemetry flags
// without -trace) exit 2 with usage before any simulation work starts.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"slinfer/internal/baseline"
	"slinfer/internal/experiments"
	"slinfer/internal/faults"
	"slinfer/internal/fleet"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload/traceio"
)

func main() {
	list := flag.Bool("list", false, "list registered experiments and exit")
	exp := flag.String("exp", "", "experiment id(s, comma-separated) to run, or 'all'")
	quick := flag.Bool("quick", false, "run at reduced scale (shorter traces, sparser sweeps)")
	par := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"max concurrent simulation cells (1 = serial)")
	trace := flag.String("trace", "", "replay this JSONL trace instead of running experiments")
	system := flag.String("system", "SLINFER", "system preset to replay: SLINFER|sllm|sllm+c|sllm+c+s|NEO+")
	baseName := flag.String("base", "", "catalog model bound to trace model names (default: trace header, else llama-2-7b)")
	cpus := flag.Int("cpu", 4, "replay testbed CPU nodes")
	gpus := flag.Int("gpu", 4, "replay testbed GPU nodes")
	shards := flag.Int("shards", 1, "fleet replay: number of controller shards (each a -cpu/-gpu testbed)")
	routing := flag.String("routing", "rr", "fleet routing policy: rr|least|affinity|kvaffinity")
	admitLimit := flag.Int("admit-limit", 0, "fleet admission: shed past this many outstanding requests per active shard (0 = accept all)")
	epoch := flag.Float64("epoch", 0, "fleet co-simulation epoch in seconds (0 = default 5s)")
	prefix := flag.Bool("prefix", false, "enable the tiered prefix-sharing KV store on the chosen system")
	prefixGPU := flag.Int64("prefix-gpu-mb", 0, "prefix store GPU tier capacity in MiB (0 = default 4096)")
	prefixCPU := flag.Int64("prefix-cpu-mb", 0, "prefix store host spill tier capacity in MiB (0 = default 4x GPU, negative disables the host tier)")
	prefixBlock := flag.Int("prefix-block", 0, "prefix store token-block granularity (0 = default 16)")
	faultsPath := flag.String("faults", "", "fleet replay: JSONL fault plan to inject on the run's timeline")
	chaos := flag.String("chaos", "", "fleet replay: seeded fault preset: "+strings.Join(faults.PresetNames, "|"))
	retryBudget := flag.Int("retry-budget", -1, "fleet replay: max re-drives per request pulled off a crashed shard (-1 = default 2)")
	timeline := flag.String("timeline", "", "replay: write the span timeline as Chrome trace-event JSON to this file")
	series := flag.String("series", "", "replay: write the sim-time metric stream as CSV to this file")
	flightrec := flag.Bool("flightrec", false, "replay: arm the telemetry flight recorder (violating fleet shards dump their last events to stderr)")
	flag.Parse()
	validateFlags()

	var telem *telemetry.Trace
	if *timeline != "" || *series != "" || *flightrec {
		opts := telemetry.Options{Spans: *timeline != "", Series: *series != ""}
		if *flightrec {
			opts.FlightRing = telemetry.DefaultFlightRing
		}
		telem = telemetry.New(opts)
	}

	pcache := prefixConfig(*prefix, *prefixGPU, *prefixCPU, *prefixBlock)

	if *shards > 1 {
		runFleet(fleetOptions{
			trace: *trace, system: *system, base: *baseName,
			cpus: *cpus, gpus: *gpus, shards: *shards,
			routing: *routing, admitLimit: *admitLimit, epochSec: *epoch,
			workers: *par, pcache: pcache,
			faultsPath: *faultsPath, chaos: *chaos, retryBudget: *retryBudget,
			telem: telem, timeline: *timeline, series: *series,
		})
		return
	}

	if *trace != "" {
		opt := experiments.ReplayOptions{System: *system, CPUNodes: *cpus, GPUNodes: *gpus, PrefixCache: pcache}
		if telem != nil {
			opt.Telemetry = telem.Recorder(0)
		}
		if *baseName != "" {
			base, ok := model.ByName(*baseName)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown base model %q\n", *baseName)
				os.Exit(2)
			}
			opt.Base = base
		}
		rep, err := experiments.ReplayFile(*trace, opt)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
		fmt.Print(rep.Canonical())
		writeTelemetry(telem, *timeline, *series)
		return
	}

	if *list || *exp == "" {
		fmt.Println("Registered experiments (paper artifact -> harness id):")
		for _, e := range experiments.All() {
			fmt.Printf("  %-10s %s\n             paper: %s\n", e.ID, e.Title, e.Paper)
		}
		if *exp == "" && !*list {
			fmt.Println("\nrun with -exp <id>[,<id>...] or -exp all")
		}
		return
	}

	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}
	if *par < 1 {
		*par = 1 // nonsensical worker counts degrade to serial
	}

	start := time.Now()
	var results []experiments.Result
	if *exp == "all" {
		results = experiments.RunAll(scale, *par)
	} else {
		ids := strings.Split(*exp, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
		}
		var err error
		results, err = experiments.Sweep(ids, scale, *par)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v; use -list\n", err)
			os.Exit(2)
		}
	}
	for _, res := range results {
		fmt.Println(res.String())
	}
	fmt.Printf("(%d experiment(s) in %v, %d workers)\n",
		len(results), time.Since(start).Round(time.Millisecond), *par)
}

// validateFlags rejects contradictory flag combinations up front — before
// any trace is loaded or simulation work starts — printing every problem
// and the usage text, then exiting 2.
func validateFlags() {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	get := func(name string) any { return flag.Lookup(name).Value.(flag.Getter).Get() }
	shards := get("shards").(int)
	fleetMode := shards > 1

	var problems []string
	bad := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}
	if shards < 1 {
		bad("-shards must be >= 1, got %d", shards)
	}
	if fleetMode && get("trace").(string) == "" {
		bad("-shards needs -trace (record one with slinfer-trace -o)")
	}
	if set["exp"] && set["trace"] {
		bad("-exp and -trace are mutually exclusive (experiments generate their own traces)")
	}
	for _, name := range []string{"routing", "admit-limit", "epoch", "faults", "chaos", "retry-budget"} {
		if set[name] && !fleetMode {
			bad("-%s only applies to a fleet replay; add -shards > 1", name)
		}
	}
	if routing := get("routing").(string); set["routing"] {
		if _, err := fleet.RoutingByName(routing); err != nil {
			bad("%v", err)
		} else if routing == "kvaffinity" && !get("prefix").(bool) {
			bad("-routing kvaffinity routes on prefix-cache residency; it needs -prefix")
		}
	}
	if v := get("admit-limit").(int); v < 0 {
		bad("-admit-limit must be >= 0, got %d", v)
	}
	if v := get("epoch").(float64); v < 0 {
		bad("-epoch must be >= 0 seconds, got %g", v)
	}
	if set["faults"] && set["chaos"] {
		bad("-faults and -chaos are mutually exclusive (an explicit plan or a preset, not both)")
	}
	if name := get("chaos").(string); name != "" && faults.Preset(name, 2, sim.Minute, 0) == nil {
		bad("unknown -chaos preset %q (have %s)", name, strings.Join(faults.PresetNames, ", "))
	}
	if set["retry-budget"] && get("retry-budget").(int) < 0 {
		bad("-retry-budget must be >= 0, got %d", get("retry-budget").(int))
	}
	for _, name := range []string{"prefix-gpu-mb", "prefix-cpu-mb", "prefix-block"} {
		if set[name] && !get("prefix").(bool) {
			bad("-%s sizes the prefix store; it needs -prefix", name)
		}
	}
	sized := true
	for _, name := range []string{"prefix-gpu-mb", "prefix-cpu-mb"} {
		if v := get(name).(int64); v > math.MaxInt64>>20 || v < math.MinInt64>>20 {
			bad("-%s %d MiB overflows a byte count", name, v)
			sized = false
		}
	}
	pcache := prefixConfig(get("prefix").(bool), get("prefix-gpu-mb").(int64), get("prefix-cpu-mb").(int64), get("prefix-block").(int))
	if err := pcache.Validate(); sized && err != nil {
		bad("%v", err)
	}
	for _, name := range []string{"timeline", "series", "flightrec"} {
		if set[name] && get("trace").(string) == "" {
			bad("-%s records a replay; it needs -trace", name)
		}
	}
	for _, name := range []string{"timeline", "series"} {
		if set[name] && get(name).(string) == "" {
			bad("-%s needs an output path", name)
		}
	}
	if len(problems) == 0 {
		return
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "slinfer:", p)
	}
	fmt.Fprintln(os.Stderr)
	flag.Usage()
	os.Exit(2)
}

// prefixConfig builds the prefix store's config from the -prefix flags:
// sizes in MiB, zero for the defaults, a negative host tier for none.
func prefixConfig(enabled bool, gpuMB, cpuMB int64, block int) kvcache.TieredConfig {
	cfg := kvcache.TieredConfig{
		Enabled:     enabled,
		GPUBytes:    gpuMB << 20,
		CPUBytes:    cpuMB << 20,
		BlockTokens: block,
	}
	if cpuMB < 0 {
		cfg.CPUBytes = -1 // negative MiB: no host tier at all
	}
	return cfg
}

// fleetOptions carries the fleet-replay parameters from flag parsing.
type fleetOptions struct {
	trace, system, base string
	cpus, gpus, shards  int
	routing             string
	admitLimit          int
	epochSec            float64
	workers             int
	pcache              kvcache.TieredConfig
	faultsPath, chaos   string
	retryBudget         int
	telem               *telemetry.Trace
	timeline, series    string
}

// writeTelemetry exports the run's telemetry (Chrome timeline JSON, series
// CSV) and prints the canonical-style summary lines. Export failures are
// fatal: a truncated trace file is worse than none.
func writeTelemetry(telem *telemetry.Trace, timeline, series string) {
	if telem == nil {
		return
	}
	write := func(path string, export func(w *os.File) error) {
		f, err := os.Create(path)
		if err == nil {
			err = export(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	}
	if timeline != "" {
		write(timeline, func(f *os.File) error { return telem.ExportChrome(f) })
	}
	if series != "" {
		write(series, func(f *os.File) error { return telem.SeriesCSV(f) })
	}
	fmt.Print(telem.Summary())
}

// runFleet replays a saved trace through an N-shard fleet and prints the
// merged canonical report plus a per-shard breakdown.
func runFleet(o fleetOptions) {
	tr, meta, err := traceio.LoadFile(o.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}
	if len(tr.Requests) == 0 {
		fmt.Fprintf(os.Stderr, "trace %s has no requests; nothing to route\n", o.trace)
		os.Exit(1)
	}
	base, err := experiments.ReplayBase(meta, o.base)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	cfg, ok := baseline.ByName(o.system)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", o.system)
		os.Exit(2)
	}
	if o.pcache.Enabled {
		if !strings.HasSuffix(cfg.Name, "+prefix") {
			cfg.Name = cfg.Name + "+prefix"
		}
		cfg.PrefixCache = o.pcache
	}
	route, err := fleet.RoutingByName(o.routing)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(2)
	}
	var plan *faults.Plan
	switch {
	case o.faultsPath != "":
		plan, err = faults.LoadFile(o.faultsPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(1)
		}
	case o.chaos != "":
		// Seeded from the trace like everything else, so a chaos replay of
		// the same file is byte-identical run to run.
		plan = faults.Preset(o.chaos, o.shards, tr.Duration, int64(meta.Seed))
	}
	fcfg := fleet.Config{
		System:           cfg,
		Shards:           fleet.UniformShards(o.shards, o.cpus, o.gpus),
		Models:           experiments.TraceModels(tr, base),
		Routing:          route,
		Epoch:            sim.Duration(o.epochSec) * sim.Second,
		Workers:          o.workers,
		Seed:             meta.Seed,
		AttachInvariants: true,
		Faults:           plan,
		Telemetry:        o.telem,
	}
	if o.admitLimit > 0 {
		fcfg.Admission = fleet.MaxOutstanding{PerShard: o.admitLimit}
	}
	if o.retryBudget >= 0 {
		fcfg.Retry = fleet.BudgetedRetry{Budget: o.retryBudget, Backoff: 1}
	}
	res := fleet.Run(fcfg, tr)
	fmt.Print(res.Report.Canonical())
	for i, rep := range res.Shards {
		fmt.Printf("shard %02d %-24s total=%d completed=%d dropped=%d slo=%.9f cold=%d\n",
			i, rep.System, rep.Total, rep.Completed, rep.Dropped, rep.SLORate, rep.ColdStarts)
	}
	fmt.Printf("offered=%d accepted=%d rejected=%d epochs=%d\n",
		res.Offered, res.Accepted, len(res.Rejections), len(res.ActiveByEpoch))
	if res.Report.FaultEvents > 0 {
		fmt.Printf("faults=%d redriven=%d retry-exhausted=%d\n",
			res.Report.FaultEvents, res.Redriven, res.RetryExhausted)
	}
	writeTelemetry(o.telem, o.timeline, o.series)
	if !res.Ok() {
		for _, v := range res.Violations {
			fmt.Fprintf(os.Stderr, "fleet violation: %s\n", v)
		}
		for i, vs := range res.ShardViolations {
			for _, v := range vs {
				fmt.Fprintf(os.Stderr, "shard %d violation: %s\n", i, v)
			}
		}
		for i, dump := range res.FlightDumps {
			if dump != "" {
				fmt.Fprintf(os.Stderr, "shard %d %s", i, dump)
			}
		}
		os.Exit(1)
	}
}
