package workload

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"slinfer/internal/sim"
)

func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("m%03d", i)
	}
	return out
}

func TestGenerateAggregateRPMMatchesPaper(t *testing.T) {
	// Figure 21: 32 models -> ~79 RPM (2366 reqs / 30 min), 64 -> ~156,
	// 128 -> ~309.
	cases := []struct {
		models  int
		wantRPM float64
	}{{32, 79}, {64, 156}, {128, 309}}
	for _, c := range cases {
		tr := Generate(TraceConfig{ModelNames: names(c.models), Seed: 7})
		st := Summarize(tr)
		if st.AggregateRPM < c.wantRPM*0.75 || st.AggregateRPM > c.wantRPM*1.25 {
			t.Errorf("%d models: aggregate RPM = %.0f, want ~%.0f",
				c.models, st.AggregateRPM, c.wantRPM)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("%d models: %v", c.models, err)
		}
	}
}

func TestPopularitySkew(t *testing.T) {
	tr := Generate(TraceConfig{ModelNames: names(128), Seed: 3})
	st := Summarize(tr)
	// §III-C: the top function alone contributes ~26% of requests... the
	// "top 1%" of 128 models is roughly the single hottest model. Accept a
	// broad band around it.
	if st.TopShare < 0.10 || st.TopShare > 0.40 {
		t.Errorf("top-model share = %.2f, want ~0.2-0.26", st.TopShare)
	}
	// Most models receive few requests: the median per-model RPM must be
	// far below the mean (Figure 21: "Most models have few requests").
	med := st.PerModelRPM[len(st.PerModelRPM)/2]
	mean := st.AggregateRPM / 128
	if med > mean*0.6 {
		t.Errorf("median RPM %.2f not << mean %.2f: no skew", med, mean)
	}
}

func TestDeterminism(t *testing.T) {
	a := Generate(TraceConfig{ModelNames: names(16), Seed: 42})
	b := Generate(TraceConfig{ModelNames: names(16), Seed: 42})
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("lengths differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs", i)
		}
	}
	c := Generate(TraceConfig{ModelNames: names(16), Seed: 43})
	if len(c.Requests) == len(a.Requests) {
		same := true
		for i := range c.Requests {
			if a.Requests[i] != c.Requests[i] {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical traces")
		}
	}
}

func TestDatasetShapes(t *testing.T) {
	rng := sim.NewRNG(5, 5)
	medians := map[string]float64{}
	for _, d := range Datasets() {
		var ins []int
		for i := 0; i < 4000; i++ {
			in := d.SampleInput(rng)
			if in < 1 || in > d.InMax {
				t.Fatalf("%s: input %d outside (0, %d]", d.Name, in, d.InMax)
			}
			out := d.SampleOutput(rng)
			if out < 1 || out > d.OutMax {
				t.Fatalf("%s: output %d outside (0, %d]", d.Name, out, d.OutMax)
			}
			ins = append(ins, in)
		}
		sort.Ints(ins)
		medians[d.Name] = float64(ins[len(ins)/2])
		got := medians[d.Name]
		if got < d.InMedian*0.8 || got > d.InMedian*1.25 {
			t.Errorf("%s: median input = %.0f, want ~%.0f", d.Name, got, d.InMedian)
		}
	}
	// Figure 34 ordering: HumanEval/ShareGPT short, AzureConv ~1K,
	// AzureCode ~2K, LongBench longest.
	if !(medians["HumanEval"] < medians["AzureConv"] &&
		medians["AzureConv"] < medians["AzureCode"] &&
		medians["AzureCode"] < medians["LongBench"]) {
		t.Errorf("dataset median ordering wrong: %v", medians)
	}
}

func TestAzureConvTailMatchesPaper(t *testing.T) {
	// §IV-A2: 97.9% of conversation inputs are under 4K tokens.
	rng := sim.NewRNG(8, 1)
	n, under := 20000, 0
	for i := 0; i < n; i++ {
		if AzureConv.SampleInput(rng) < 4096 {
			under++
		}
	}
	frac := float64(under) / float64(n)
	if frac < 0.95 || frac > 0.999 {
		t.Errorf("AzureConv P(input<4K) = %.3f, want ~0.979", frac)
	}
}

func TestMaxInputCap(t *testing.T) {
	tr := Generate(TraceConfig{ModelNames: names(8), Seed: 2, MaxInput: 2048})
	for _, r := range tr.Requests {
		if r.InputLen > 2048 {
			t.Fatalf("request input %d exceeds cap", r.InputLen)
		}
	}
}

func TestBurstGPTLoadScaling(t *testing.T) {
	low := GenerateBurstGPT(BurstGPTConfig{ModelNames: names(64), RPS: 0.5, Seed: 4})
	high := GenerateBurstGPT(BurstGPTConfig{ModelNames: names(64), RPS: 4, Seed: 4})
	if err := low.Validate(); err != nil {
		t.Fatal(err)
	}
	rl := float64(len(low.Requests)) / low.Duration.Seconds()
	rh := float64(len(high.Requests)) / high.Duration.Seconds()
	if rl < 0.3 || rl > 0.8 {
		t.Errorf("low RPS = %.2f, want ~0.5", rl)
	}
	if rh < 2.5 || rh > 5.5 {
		t.Errorf("high RPS = %.2f, want ~4", rh)
	}
	if rh/rl < 4 {
		t.Errorf("load levels should scale: %.2f vs %.2f", rl, rh)
	}
}

func TestConcurrencyCDFBurstyOnHotModel(t *testing.T) {
	tr := Generate(TraceConfig{ModelNames: names(128), Seed: 11})
	hot := HottestModel(tr)
	cc := ConcurrencyCDF(tr, hot, 0.25)
	if len(cc) == 0 {
		t.Fatal("no concurrency samples for hottest model")
	}
	// Figure 12: the top function sees concurrency from 1 to >100.
	max := cc[len(cc)-1]
	if max < 16 {
		t.Errorf("hot-model peak concurrency = %d, want bursty (>=16)", max)
	}
	if !sort.IntsAreSorted(cc) {
		t.Error("CDF samples must be sorted")
	}
}

func TestPerMinuteTimelineCoversTrace(t *testing.T) {
	tr := Generate(TraceConfig{ModelNames: names(32), Seed: 9})
	st := Summarize(tr)
	if len(st.PerMinute) != 30 {
		t.Fatalf("PerMinute buckets = %d, want 30", len(st.PerMinute))
	}
	sum := 0
	nonzero := 0
	for _, c := range st.PerMinute {
		sum += c
		if c > 0 {
			nonzero++
		}
	}
	if sum != st.TotalRequests {
		t.Errorf("timeline sum %d != total %d", sum, st.TotalRequests)
	}
	if nonzero < 25 {
		t.Errorf("only %d/30 minutes have traffic", nonzero)
	}
}

// Property: any config yields a valid trace whose per-model counts are
// non-negative and whose arrivals respect the duration.
func TestGenerateAlwaysValidProperty(t *testing.T) {
	f := func(nModels uint8, seed uint16, rpmRaw uint8) bool {
		n := int(nModels)%32 + 1
		cfg := TraceConfig{
			ModelNames:   names(n),
			Seed:         uint64(seed),
			AggregateRPM: float64(rpmRaw)/4 + 1,
			Duration:     10 * sim.Minute,
		}
		tr := Generate(cfg)
		return tr.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestValidateRejects checks that each malformed trace is reported by the
// rule it breaks; a negative first arrival is out of range, not unsorted.
func TestValidateRejects(t *testing.T) {
	req := func(id int64, at sim.Time) Request {
		return Request{ID: id, ModelName: "m", Arrival: at, InputLen: 4, OutputLen: 4}
	}
	for _, tc := range []struct {
		name string
		reqs []Request
		want string // error substring; empty means valid
	}{
		{"valid", []Request{req(0, 0), req(1, 5), req(2, 5)}, ""},
		{"negative-first-arrival", []Request{req(0, -5), req(1, 2)}, "outside [0, 60.000000s)"},
		{"arrival-at-duration", []Request{req(0, 60)}, "outside [0, 60.000000s)"},
		{"unsorted", []Request{req(0, 5), req(1, 2)}, "request 1: arrivals not sorted"},
		{"zero-length", []Request{{ID: 0, ModelName: "m", Arrival: 1, InputLen: 0, OutputLen: 4}}, "non-positive lengths"},
		{"duplicate-id", []Request{req(7, 1), req(7, 2)}, "duplicate ID 7"},
	} {
		err := Trace{Requests: tc.reqs, Duration: sim.Minute}.Validate()
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: unexpected error %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestLogNormalMedianSanity(t *testing.T) {
	// Guard against regressions in the RNG helpers the datasets rely on.
	rng := sim.NewRNG(1, 1)
	var vals []float64
	for i := 0; i < 10001; i++ {
		vals = append(vals, rng.LogNormal(math.Log(100), 0.5))
	}
	sort.Float64s(vals)
	med := vals[len(vals)/2]
	if med < 90 || med > 111 {
		t.Errorf("lognormal median = %.1f, want ~100", med)
	}
}
