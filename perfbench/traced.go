package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"slinfer/internal/experiments"
)

// profiledPackages are the internal packages the workloads execute, each
// reported as <name>.self_pct. runtime covers GC, allocation and maps;
// perfbench is this package (the decorators' own cost).
var profiledPackages = []string{
	"baseline", "cluster", "compute", "consolidator", "core", "engine",
	"experiments", "faults", "fleet", "hwsim", "invariants", "kvcache",
	"memctl", "metrics", "model", "par", "perfmodel", "policy", "sim", "slo",
	"telemetry", "workload", "traceio", "runtime", "perfbench",
}

// profiledFuncs are reported as <name>.cum_pct: the functions the
// admission and prefix-store profiles are dominated by.
var profiledFuncs = map[string]string{
	"core.retry_pending": "slinfer/internal/core.(*Controller).retryPending",
	"core.try_place":     "slinfer/internal/core.(*Controller).tryPlace",
	"compute.validate":   "slinfer/internal/compute.(*Validator).Validate",
	"kvcache.insert":     "slinfer/internal/kvcache.(*TieredStore).Insert",
}

// layerUnits lists every per-layer metric other than the per-package,
// per-function and per-experiment ones. A traced run prints all of them;
// a layer the workload does not exercise reads 0.
var layerUnits = [][2]string{
	{"compute.validations", "count"}, {"compute.validation_rejects", "count"},
	{"compute.validate_ms", "ms"},
	{"compute.host_validate.calls", "count"}, {"compute.host_validate.ms", "ms"},
	{"policy.place_new.calls", "count"}, {"policy.place_new.ok", "count"},
	{"policy.place_new.self_ms", "ms"}, {"policy.admit_scale_out.calls", "count"},
	{"policy.try_preempt.calls", "count"}, {"policy.try_preempt.ok", "count"},
	{"policy.try_preempt.self_ms", "ms"}, {"core.host_reentry.calls", "count"},
	{"perfmodel.profile.calls", "count"}, {"perfmodel.profile.ms", "ms"},
	{"perfmodel.registry_size", "count"},
	{"kvcache.prefix_lookups", "count"}, {"kvcache.prefix_hit_rate", "ratio"},
	{"kvcache.lookup_ns", "ns"}, {"kvcache.insert_ns", "ns"},
	{"sim.events", "count"}, {"engine.decode_iters", "count"}, {"engine.avg_batch", "req"},
	{"fleet.route.calls", "count"}, {"fleet.route.ms", "ms"}, {"fleet.epochs", "count"},
	{"fleet.merge_ms", "ms"}, {"faults.events", "count"}, {"fleet.redriven", "count"},
	{"fleet.retry_exhausted", "count"}, {"par.fleet_speedup", "ratio"},
	{"memctl.kv_resizes", "count"}, {"memctl.ops.load_weights", "count"},
	{"memctl.ops.unload_weights", "count"}, {"memctl.ops.resize_kv", "count"},
	{"memctl.ops.rejected", "count"},
	{"traceio.load_ms", "ms"}, {"traceio.bytes", "bytes"},
	{"workload.generate_ms", "ms"}, {"metrics.canonical_ms", "ms"},
	{"metrics.slo_attainment", "ratio"}, {"invariants.violations", "count"},
	{"runtime.mallocs", "count"}, {"runtime.gc_cycles", "count"},
	{"trace.overhead_s", "s"},
}

// traced is the --trace 1 run. Each pass runs the workload untraced and
// then with the decorators installed and a CPU profile recording; both
// must give the same digest. Passes repeat until the time is up, then the
// workload's layer-isolated replays run once and the profiles are folded.
func (b *bench) traced() (result, error) {
	j, _, st, err := b.setup()
	if err != nil {
		return result{}, err
	}
	res := result{workload: b.w.name, metrics: metricSet{}}
	var (
		plain, decorated []sample
		profiles         []string
		digest           string
	)
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < b.seconds; pass++ {
		u, err := timedRun(j, b.workers, false, "")
		res.attempted++
		if err != nil {
			return result{}, fmt.Errorf("untraced run: %w", err)
		}
		prof := filepath.Join(workDir, fmt.Sprintf("%s-%d.pprof", b.w.name, pass))
		t, err := timedRun(j, b.workers, true, prof)
		res.attempted++
		if err != nil {
			return result{}, fmt.Errorf("traced run: %w", err)
		}
		profiles = append(profiles, prof)
		if digest == "" {
			digest = u.out.digest
		}
		if u.out.digest != digest || t.out.digest != digest {
			res.fail(fmt.Errorf("pass %d: untraced digest %s, traced %s, first %s",
				pass, u.out.digest, t.out.digest, digest))
		}
		plain, decorated = append(plain, u), append(decorated, t)
	}
	m := res.metrics
	wall := medianOf(plain, func(s sample) float64 { return s.wall.Seconds() })
	m.set("trace.overhead_s", medianOf(decorated, func(s sample) float64 { return s.wall.Seconds() })-wall, "s")
	m.set("runtime.mallocs", medianOf(plain, func(s sample) float64 { return float64(s.mallocs) }), "count")
	m.set("runtime.gc_cycles", medianOf(plain, func(s sample) float64 { return float64(s.gcCycles) }), "count")
	m.set("invariants.violations", float64(plain[0].out.violations), "count")
	m.set("workload.generate_ms", ms(st.generate), "ms")
	m.set("traceio.bytes", float64(st.traceBytes), "bytes")

	// The layers compare against the last untraced run, timed as the median.
	ref := plain[len(plain)-1]
	ref.wall = time.Duration(wall * float64(time.Second))
	res.attempted++
	if err := j.layers(b, m, ref); err != nil {
		res.fail(fmt.Errorf("layers: %w", err))
	}
	if err := foldProfiles(profiles, m); err != nil {
		return result{}, err
	}
	for _, l := range layerUnits {
		if _, ok := m[l[0]]; !ok {
			m.set(l[0], 0, l[1])
		}
	}
	for _, e := range experiments.All() {
		if name := "experiments." + e.ID + ".ms"; m[name].Unit == "" {
			m.set(name, 0, "ms")
		}
	}
	res.info = []string{fmt.Sprintf("digest %s over %d passes (%d profiles)", digest, len(plain), len(profiles))}
	return res, nil
}

// startProfile starts a CPU profile into path; an empty path records none.
func startProfile(path string) (stop func() error, err error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// topLine matches one row of `go tool pprof -top`:
// flat flat% sum% cum cum% name.
var topLine = regexp.MustCompile(`^\s*(\S+)\s+([\d.]+)%\s+[\d.]+%\s+(\S+)\s+([\d.]+)%\s+(.+)$`)

// foldProfiles folds the CPU profiles with `go tool pprof -top` into self
// time per package and cumulative time of profiledFuncs.
func foldProfiles(paths []string, m metricSet) error {
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0"}, paths...)
	var stderr bytes.Buffer
	cmd := exec.Command("go", args...)
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	self := map[string]float64{}
	for _, p := range profiledPackages {
		self[p] = 0
	}
	cum := map[string]float64{}
	cumMS := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	rows := 0
	for sc.Scan() {
		f := topLine.FindStringSubmatch(sc.Text())
		if f == nil {
			continue
		}
		flatPct, err1 := strconv.ParseFloat(f[2], 64)
		cumPct, err2 := strconv.ParseFloat(f[4], 64)
		cumDur, err3 := parseDuration(f[3])
		if err1 != nil || err2 != nil || err3 != nil {
			continue // the header row
		}
		rows++
		fn := strings.TrimSpace(f[5])
		if _, ok := self[packageOf(fn)]; ok {
			self[packageOf(fn)] += flatPct
		}
		for name, full := range profiledFuncs {
			if fn == full {
				cum[name] += cumPct
				cumMS[name] += ms(cumDur)
			}
		}
	}
	if rows == 0 {
		return fmt.Errorf("go tool pprof printed no rows")
	}
	for p, v := range self {
		m.set(p+".self_pct", v, "%")
	}
	for name := range profiledFuncs {
		m.set(name+".cum_pct", cum[name], "%")
	}
	m.set("compute.validate_ms", cumMS["compute.validate"]/float64(len(paths)), "ms")
	return nil
}

// packageOf names the package a profiled function belongs to: the last
// element of an internal package's path, "runtime" for the runtime and
// its internal packages, "perfbench" for this command.
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // drop generic shapes, which may hold other paths
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return ""
	}
	path := fn[:slash+1+dot]
	switch {
	case path == "main":
		return "perfbench"
	case path == "runtime", strings.HasPrefix(path, "runtime/"), strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(path, "slinfer/internal/"):
		return path[strings.LastIndexByte(path, '/')+1:]
	}
	return ""
}

// parseDuration reads pprof's compact durations ("0", "10ms", "1.20s",
// "1.05mins").
func parseDuration(s string) (time.Duration, error) {
	if s == "0" {
		return 0, nil
	}
	units := []struct {
		suffix string
		scale  float64
	}{{"mins", 60e9}, {"hrs", 3600e9}, {"ms", 1e6}, {"us", 1e3}, {"µs", 1e3}, {"ns", 1}, {"s", 1e9}}
	for _, u := range units {
		if strings.HasSuffix(s, u.suffix) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(s, u.suffix), 64)
			if err != nil {
				return 0, err
			}
			return time.Duration(v * u.scale), nil
		}
	}
	return 0, fmt.Errorf("unknown duration %q", s)
}
