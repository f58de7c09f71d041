// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload of the simulator as a user would, times it from outside, checks
// every run's output, and prints the metrics as one JSON object on the last
// line of standard output:
//
//	bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics of untraced runs. With
// --trace 1 it wraps the controller's public policy and routing interfaces
// in counting decorators, records a CPU profile, replays single layers on
// the run's own inputs and outputs, and reports the per-layer metrics.
// Nothing inside the program changes: every layer is measured at the calls
// this package makes into it. README.md records why each workload was
// chosen and which end-to-end metric each layer metric should move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// A benchWorkload builds its inputs from a seed; prepare is what setup_s
// times.
type benchWorkload struct {
	name    string
	prepare func(seed uint64, dir string) (job, stages, error)
}

// stages splits one prepare call into the layer calls it made.
type stages struct {
	generate, save, load, build time.Duration
	traceBytes                  int64
}

func (s stages) total() time.Duration { return s.generate + s.save + s.load + s.build }

// A job is one workload's prepared inputs.
type job interface {
	// arm builds the per-run state (controller, fleet config) outside the
	// timed region; traced installs the counting decorators.
	arm(traced bool)
	// run executes the armed workload once: the timed region.
	run(workers int)
	// result checks the last run's output and fingerprints it.
	result() (outcome, error)
	// layers adds the workload's per-layer metrics after a traced run: the
	// decorator counts, outputs read from public fields, and the
	// layer-isolated replays on the run's own inputs and outputs. ref is
	// the untraced run of the same pass.
	layers(b *bench, m metricSet, ref sample) error
}

// A crossChecker compares a run with an independent run of the same inputs
// (a different worker count).
type crossChecker interface {
	crossCheck(last outcome) error
}

// outcome is what one run leaves for the checks and the metrics.
type outcome struct {
	// digest fingerprints the run's output; equal inputs must give equal
	// digests on every run, worker count and tracing mode.
	digest string
	// requests is the simulated request count (0 outside trace replays).
	requests int64
	// events is the DES event count (0 where the benchmark cannot read it).
	events uint64
	// met and total give the simulated SLO attainment.
	met, total int64
	// violations counts invariant-suite findings (fleet only).
	violations int
}

var workloads = []benchWorkload{
	{name: "repro-quick", prepare: prepareRepro},
	{name: "admit-saturated", prepare: prepareAdmit},
	{name: "fleet-chat-chaos", prepare: prepareFleet},
}

// setup_s is the median of at least setupReps set-ups, repeated until
// they add up to setupMin: a short set-up is timed many times, so one slow
// pass (page faults, a noisy neighbour) does not move it.
const (
	setupReps = 5
	setupMin  = 500 * time.Millisecond
	setupMax  = 1000
)

// workDir, under the checkout the benchmark runs in, holds the generated
// trace files and the profiles.
const workDir = ".bench_build/perfbench/work"

// minReps is the least number of timed runs, even when --seconds is short.
const minReps = 3

type bench struct {
	seed    uint64
	seconds time.Duration
	workers int
	w       benchWorkload
}

func main() { os.Exit(mainErr()) }

func mainErr() int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 17, "workload seed; README.md says what each workload seeds with it")
	seconds := fs.Int("seconds", 10, "how long to measure, in seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics, 0 = end-to-end metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w *benchWorkload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (have %s)\n", *name, workloadNames())
		return 2
	case *seconds < 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds must be >= 1, got %d\n", *seconds)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b := &bench{seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		workers: runtime.NumCPU(), w: *w}
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = b.traced()
	} else {
		res, err = b.measure()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

// setup runs the workload's set-up repeatedly and returns the last job,
// the median set-up time in seconds, and the stage split of a middle pass.
func (b *bench) setup() (job, float64, stages, error) {
	var (
		j     job
		all   []stages
		spent time.Duration
	)
	for i := 0; i < setupMax && (i < setupReps || spent < setupMin); i++ {
		var st stages
		var err error
		// Every pass starts from a collected heap, so the collections
		// inside it do not depend on what the previous pass left behind.
		runtime.GC()
		j, st, err = b.w.prepare(b.seed, workDir)
		if err != nil {
			return nil, 0, stages{}, fmt.Errorf("%s set-up: %w", b.w.name, err)
		}
		st.build += timeIt(func() { j.arm(false) })
		all = append(all, st)
		spent += st.total()
	}
	sort.Slice(all, func(i, k int) bool { return all[i].total() < all[k].total() })
	return j, medianOf(all, func(s stages) float64 { return s.total().Seconds() }), all[len(all)/2], nil
}

// sample is one timed run.
type sample struct {
	out                  outcome
	wall                 time.Duration
	allocBytes, peakLive uint64
	mallocs, gcCycles    uint64
}

// timedRun arms and runs the job once, timing only the run itself. A
// non-empty profile path records a CPU profile of the run there.
func timedRun(j job, workers int, traced bool, profile string) (sample, error) {
	j.arm(traced)
	runtime.GC()
	stopProfile, err := startProfile(profile)
	if err != nil {
		return sample{}, err
	}
	before := readRuntime()
	hw := watchHeap()
	start := time.Now()
	err = safeRun(j, workers)
	wall := time.Since(start)
	if perr := stopProfile(); err == nil {
		err = perr
	}
	// The run's results are still referenced, so a collection now marks
	// exactly the live heap the run ends with, which the per-cycle samples
	// may have missed.
	runtime.GC()
	peak := hw.stop()
	after := readRuntime()
	var out outcome
	if err == nil {
		out, err = j.result()
	}
	return sample{
		out: out, wall: wall, peakLive: peak,
		allocBytes: after.allocBytes - before.allocBytes,
		mallocs:    after.mallocs - before.mallocs,
		gcCycles:   after.gcCycles - before.gcCycles,
	}, err
}

// safeRun turns a panic inside the program into a failed run.
func safeRun(j job, workers int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	j.run(workers)
	return nil
}

// measure is the untraced run: set-up, then timed runs until the time is
// up, every run checked against the first.
func (b *bench) measure() (result, error) {
	j, setup, _, err := b.setup()
	if err != nil {
		return result{}, err
	}
	var (
		samples []sample
		ref     *outcome
		res     = result{workload: b.w.name, metrics: metricSet{}}
	)
	start := time.Now()
	for res.attempted < minReps || time.Since(start) < b.seconds {
		s, err := timedRun(j, b.workers, false, "")
		res.attempted++
		if err == nil && ref != nil && s.out.digest != ref.digest {
			err = fmt.Errorf("digest %s differs from the first run's %s", s.out.digest, ref.digest)
		}
		if err != nil {
			res.fail(fmt.Errorf("run %d: %w", res.attempted, err))
			continue
		}
		if ref == nil {
			ref = &s.out
		}
		samples = append(samples, s)
	}
	if ref == nil {
		return result{}, errors.New("no run succeeded: " + strings.Join(res.errs, "; "))
	}
	if cc, ok := j.(crossChecker); ok {
		res.attempted++
		if err := cc.crossCheck(*ref); err != nil {
			res.fail(fmt.Errorf("cross-check: %w", err))
		}
	}

	wall := medianOf(samples, func(s sample) float64 { return s.wall.Seconds() })
	m := res.metrics
	m.set("wall_s", wall, "s")
	m.set("setup_s", setup, "s")
	m.set("alloc_mb", medianOf(samples, func(s sample) float64 { return float64(s.allocBytes) / 1e6 }), "MB")
	m.set("peak_heap_mb", medianOf(samples, func(s sample) float64 { return float64(s.peakLive) / 1e6 }), "MB")
	walls := make([]string, len(samples))
	for i, s := range samples {
		walls[i] = fmt.Sprintf("%.3fs/%.1fMB", s.wall.Seconds(), float64(s.peakLive)/1e6)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s runs (wall/peak live heap): %s\n", b.w.name, strings.Join(walls, " "))
	// The figures below are printed for reading but left out of the JSON
	// line: each is zero or undefined on some workload (see README.md).
	res.info = []string{
		fmt.Sprintf("runs                 %d (%d failed)", res.attempted, res.failed),
		fmt.Sprintf("digest               %s", ref.digest),
		fmt.Sprintf("ops_failed           %.4f share of runs", float64(res.failed)/float64(res.attempted)),
	}
	if ref.requests > 0 {
		res.info = append(res.info,
			fmt.Sprintf("sim_req_per_s        %.1f 1/s (%d requests)", float64(ref.requests)/wall, ref.requests))
	} else {
		res.info = append(res.info, "sim_req_per_s        n/a (no single trace)")
	}
	if ref.events > 0 {
		res.info = append(res.info,
			fmt.Sprintf("sim_events_per_s     %.1f 1/s (%d events)", float64(ref.events)/wall, ref.events))
	} else {
		res.info = append(res.info, "sim_events_per_s     n/a (simulators are built inside the experiments)")
	}
	if ref.total > 0 {
		res.info = append(res.info,
			fmt.Sprintf("slo_attainment       %.6f ratio (%d/%d)", float64(ref.met)/float64(ref.total), ref.met, ref.total))
	} else {
		res.info = append(res.info, "slo_attainment       n/a (many systems per table)")
	}
	res.info = append(res.info, fmt.Sprintf("invariant_violations %d", ref.violations))
	return res, nil
}

// result is what one invocation prints.
type result struct {
	workload  string
	attempted int
	failed    int
	errs      []string
	metrics   metricSet
	info      []string
}

func (r *result) fail(err error) {
	r.failed++
	r.errs = append(r.errs, err.Error())
	fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", r.workload, err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// print writes the readable table, then the JSON line.
func (r result) print(w io.Writer) error {
	names := make([]string, 0, len(r.metrics))
	for n, v := range r.metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", n, v.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "== %s ==\n", r.workload)
	for _, n := range names {
		fmt.Fprintf(w, "%-34s %.6g %s\n", n, r.metrics[n].Value, r.metrics[n].Unit)
	}
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	line, err := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, r.metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func medianOf[T any](xs []T, f func(T) float64) float64 {
	vs := make([]float64, len(xs))
	for i, x := range xs {
		vs[i] = f(x)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}
