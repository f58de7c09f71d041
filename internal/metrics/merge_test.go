package metrics

import (
	"math"
	"slices"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

// shardReport builds a small report from raw observations through the same
// collector path a real run uses.
func shardReport(t *testing.T, name string, ttfts []float64, mem map[hwsim.Kind][]float64, met int64) Report {
	t.Helper()
	c := NewCollector()
	for i, v := range ttfts {
		c.RecordArrival()
		c.RecordCompletion(int64(i) < met, sim.Duration(v), true)
	}
	for kind, samples := range mem {
		for _, v := range samples {
			c.SampleMemUtil(kind, v)
		}
	}
	return c.BuildReport(name, 10*sim.Second)
}

// TestMergeReportsPercentiles pins the exactness contract: the merged
// report's TTFT percentiles and memory means equal the percentiles of the
// concatenated sample sets — i.e. merging reports is equivalent to having
// collected every shard's samples into one collector.
func TestMergeReportsPercentiles(t *testing.T) {
	a := shardReport(t, "a",
		[]float64{0.9, 0.1, 0.5, 0.7, 0.3},
		map[hwsim.Kind][]float64{hwsim.GPU: {0.2, 0.8}}, 3)
	b := shardReport(t, "b",
		[]float64{0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4},
		map[hwsim.Kind][]float64{hwsim.GPU: {0.5}, hwsim.CPU: {0.9, 0.1}}, 5)

	merged := MergeReports("fleet", 10*sim.Second, a, b)

	// Reference: one collector fed the concatenation of all samples.
	want := shardReport(t, "fleet",
		[]float64{0.9, 0.1, 0.5, 0.7, 0.3, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2, 1.4},
		map[hwsim.Kind][]float64{hwsim.GPU: {0.2, 0.8, 0.5}, hwsim.CPU: {0.9, 0.1}}, 0)

	for _, tc := range []struct {
		field    string
		got, ref float64
	}{
		{"p50", merged.TTFTP50, want.TTFTP50},
		{"p95", merged.TTFTP95, want.TTFTP95},
		{"p99", merged.TTFTP99, want.TTFTP99},
		{"memutil-gpu", merged.MeanMemUtil[hwsim.GPU], want.MeanMemUtil[hwsim.GPU]},
		{"memutil-cpu", merged.MeanMemUtil[hwsim.CPU], want.MeanMemUtil[hwsim.CPU]},
	} {
		if math.Abs(tc.got-tc.ref) > 1e-12 {
			t.Errorf("%s: merged %v != concatenated %v", tc.field, tc.got, tc.ref)
		}
	}
	if len(merged.TTFTCDF) != len(a.TTFTCDF)+len(b.TTFTCDF) {
		t.Errorf("merged CDF has %d samples, want %d", len(merged.TTFTCDF), len(a.TTFTCDF)+len(b.TTFTCDF))
	}
	for i := 1; i < len(merged.TTFTCDF); i++ {
		if merged.TTFTCDF[i] < merged.TTFTCDF[i-1] {
			t.Fatalf("merged TTFTCDF not sorted at %d", i)
		}
	}

	if merged.Total != a.Total+b.Total || merged.Met != a.Met+b.Met {
		t.Errorf("counters did not sum: total=%d met=%d", merged.Total, merged.Met)
	}
	wantRate := float64(a.Met+b.Met) / float64(a.Total+b.Total)
	if math.Abs(merged.SLORate-wantRate) > 1e-12 {
		t.Errorf("SLORate %v, want %v", merged.SLORate, wantRate)
	}
}

// TestMergeReportsDoesNotMutateInputs guards the aliasing hazard:
// per-shard reports alias their collectors' sorted buffers, and a merge
// must never resort or grow them in place.
func TestMergeReportsDoesNotMutateInputs(t *testing.T) {
	a := shardReport(t, "a", []float64{0.9, 0.1, 0.5}, nil, 1)
	before := append([]float64(nil), a.TTFTCDF...)
	_ = MergeReports("fleet", 10*sim.Second, a, a)
	for i := range before {
		if a.TTFTCDF[i] != before[i] {
			t.Fatalf("input CDF mutated at %d", i)
		}
	}
}

// TestMergeReportsExactTotals pins the merge contract: the batch
// histogram, AvgBatch, MeanKVUtil, ScalingOverhead, and the prefix hit rate
// merge from the exact totals each report carries — equal (to float
// rounding) to one collector having seen everything, with more iterations
// than any sample cap would keep.
func TestMergeReportsExactTotals(t *testing.T) {
	build := func(name string, decodes []int, kv []float64, busy, life sim.Duration, prefix [][2]int64) Report {
		c := NewCollector()
		for _, b := range decodes {
			c.RecordDecode(hwsim.GPU, b)
		}
		for _, v := range kv {
			c.SampleKVUtil(v)
		}
		c.ScalingBusy, c.InstanceLifetime = busy, life
		for _, p := range prefix {
			c.RecordPrefixLookup(p[0], p[1])
		}
		return c.BuildReport(name, 10*sim.Second)
	}

	// Shard a: 200001 iterations of batch 2 plus 100000 of batch 8. Its
	// P90 sits among the 8s; a copy keeping only the smallest 200000
	// samples would report 2.
	decodesA := make([]int, 0, 300001)
	for i := 0; i < 200001; i++ {
		decodesA = append(decodesA, 2)
	}
	for i := 0; i < 100000; i++ {
		decodesA = append(decodesA, 8)
	}
	a := build("a", decodesA, []float64{0.5, 0.7}, 2*sim.Second, 10*sim.Second,
		[][2]int64{{100, 50}, {0, 30}})
	b := build("b", []int{4, 4, 4, 4}, []float64{0.1}, sim.Second, 30*sim.Second,
		[][2]int64{{200, 0}})

	if got, ref := a.BatchPercentile(0.9), bruteBatchPercentile(decodesA, 0.9); got != 8 || got != ref {
		t.Fatalf("shard a batch P90 = %d, want 8 (brute force %d)", got, ref)
	}
	if a.DecodeIters != 300001 {
		t.Fatalf("shard a DecodeIters = %d, want 300001", a.DecodeIters)
	}

	merged := MergeReports("fleet", 10*sim.Second, a, b)

	// Reference: one collector fed everything.
	want := build("fleet", append(append([]int{}, decodesA...), 4, 4, 4, 4),
		[]float64{0.5, 0.7, 0.1}, 3*sim.Second, 40*sim.Second,
		[][2]int64{{100, 50}, {0, 30}, {200, 0}})

	for _, tc := range []struct {
		field    string
		got, ref float64
	}{
		{"kvutil", merged.MeanKVUtil, want.MeanKVUtil},
		{"scaling", merged.ScalingOverhead, want.ScalingOverhead},
		{"prefixrate", merged.PrefixHitRate, want.PrefixHitRate},
	} {
		if math.Abs(tc.got-tc.ref) > 1e-12 {
			t.Errorf("%s: merged %v != pooled %v", tc.field, tc.got, tc.ref)
		}
	}
	if !slices.Equal(trimHist(merged.batchHist), trimHist(want.batchHist)) {
		t.Errorf("merged histogram %v, want %v", merged.batchHist, want.batchHist)
	}
	if merged.AvgBatch != want.AvgBatch {
		t.Errorf("avgbatch: merged %v != pooled %v", merged.AvgBatch, want.AvgBatch)
	}
	if merged.DecodeIters != want.DecodeIters || merged.KVSamples != want.KVSamples {
		t.Errorf("totals: iters=%d kv=%d, want %d, %d",
			merged.DecodeIters, merged.KVSamples, want.DecodeIters, want.KVSamples)
	}
	if merged.ScalingBusy != want.ScalingBusy || merged.InstanceLifetime != want.InstanceLifetime {
		t.Errorf("durations did not sum: %v/%v", merged.ScalingBusy, merged.InstanceLifetime)
	}
	if merged.PrefixLookups != 3 || merged.PrefixHits != 2 ||
		merged.PrefixHitBytes != 300 || merged.PrefixMissBytes != 80 {
		t.Errorf("prefix counters: %+v", merged)
	}
}

// TestMergeReportsEmpty keeps the degenerate cases total.
func TestMergeReportsEmpty(t *testing.T) {
	m := MergeReports("fleet", sim.Second)
	if m.Total != 0 || m.SLORate != 0 || len(m.TTFTCDF) != 0 {
		t.Fatalf("empty merge not zero: %+v", m)
	}
	if m.System != "fleet" || m.Duration != sim.Second {
		t.Fatalf("identity fields lost: %+v", m)
	}
}
