package metrics

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

// hashInts is the reference batch hash: one "%d," per sample of the
// expanded ascending sequence. Canonical's histogram hash must equal it.
func hashInts(vs []int) uint64 {
	h := fnv.New64a()
	for _, v := range vs {
		fmt.Fprintf(h, "%d,", v)
	}
	return h.Sum64()
}

// bruteBatchPercentile sorts every sample and takes the floor rank.
func bruteBatchPercentile(samples []int, p float64) int {
	if len(samples) == 0 {
		return 0
	}
	sorted := slices.Clone(samples)
	slices.Sort(sorted)
	return sorted[int(p*float64(len(sorted)-1))]
}

// trimHist drops trailing empty buckets, which depend only on how far a
// histogram happened to grow.
func trimHist(h []int64) []int64 {
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return h
}

// batchLine returns Canonical's batch line.
func batchLine(t *testing.T, r Report) string {
	t.Helper()
	for _, line := range strings.Split(r.Canonical(), "\n") {
		if strings.HasPrefix(line, "avgbatch=") {
			return line
		}
	}
	t.Fatalf("no batch line in:\n%s", r.Canonical())
	return ""
}

// FuzzBatchHist checks the histogram-backed batch distribution against the
// per-sample reference: the canonical hash equals the hash of the expanded
// sorted samples, BatchPercentile equals a brute-force floor rank, and
// merging shard reports equals one collector that recorded everything.
func FuzzBatchHist(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 2, 2, 8, 8, 8, 3})
	f.Add([]byte{3, 40, 1, 1, 1, 200, 7, 7, 0, 2, 33})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		shards := make([]*Collector, 1+int(data[0])%4)
		for i := range shards {
			shards[i] = NewCollector()
		}
		whole := NewCollector()
		var samples []int
		for i, x := range data[1:] {
			b := int(x) % 64
			samples = append(samples, b)
			shards[i%len(shards)].RecordDecode(hwsim.GPU, b)
			whole.RecordDecode(hwsim.GPU, b)
		}
		reports := make([]Report, len(shards))
		for i, c := range shards {
			reports[i] = c.BuildReport("x", sim.Second)
		}
		merged := MergeReports("x", sim.Second, reports...)
		single := whole.BuildReport("x", sim.Second)

		sorted := slices.Clone(samples)
		slices.Sort(sorted)
		for name, r := range map[string]Report{"single": single, "merged": merged} {
			want := fmt.Sprintf("avgbatch=%.9f batchcdf n=%d hash=%x",
				r.AvgBatch, len(sorted), hashInts(sorted))
			if got := batchLine(t, r); got != want {
				t.Fatalf("%s: batch line %q, want %q", name, got, want)
			}
			for _, p := range []float64{0, 0.5, 0.9, 1} {
				if got, ref := r.BatchPercentile(p), bruteBatchPercentile(samples, p); got != ref {
					t.Fatalf("%s: BatchPercentile(%v) = %d, brute force %d", name, p, got, ref)
				}
			}
		}
		if !slices.Equal(trimHist(merged.batchHist), trimHist(single.batchHist)) {
			t.Fatalf("merged histogram %v, single %v", merged.batchHist, single.batchHist)
		}
		if merged.Canonical() != single.Canonical() {
			t.Fatalf("merged report\n%s\nsingle collector\n%s", merged.Canonical(), single.Canonical())
		}
	})
}

// TestReportSurvivesCollectorReset pins Collector.Reset's contract: a
// report built before the reset keeps its samples while the collector
// records a different run, whether BuildReport aliased a buffer (disowned
// on reset) or copied it (cleared in place).
func TestReportSurvivesCollectorReset(t *testing.T) {
	c := NewCollector()
	record := func(ttfts, mem []float64, batches []int) Report {
		for _, v := range ttfts {
			c.RecordArrival()
			c.RecordCompletion(true, sim.Duration(v), true)
		}
		for _, v := range mem {
			c.SampleMemUtil(hwsim.GPU, v)
		}
		for _, b := range batches {
			c.RecordDecode(hwsim.GPU, b)
		}
		return c.BuildReport("run", 10*sim.Second)
	}
	first := record([]float64{0.3, 0.1, 0.2}, []float64{0.6, 0.4}, []int{1, 2, 2})
	ttft := slices.Clone(first.TTFTCDF)
	mem := slices.Clone(first.MemUtilCDF[hwsim.GPU])
	hist := slices.Clone(first.batchHist)
	canon := first.Canonical()

	c.Reset()
	second := record([]float64{0.9, 0.8, 0.7, 0.6}, []float64{0.1, 0.2, 0.3}, []int{1, 1, 3})

	if !slices.Equal(first.TTFTCDF, ttft) {
		t.Errorf("TTFTCDF changed: %v, want %v", first.TTFTCDF, ttft)
	}
	if !slices.Equal(first.MemUtilCDF[hwsim.GPU], mem) {
		t.Errorf("MemUtilCDF changed: %v, want %v", first.MemUtilCDF[hwsim.GPU], mem)
	}
	if !slices.Equal(first.batchHist, hist) {
		t.Errorf("batch histogram changed: %v, want %v", first.batchHist, hist)
	}
	if first.Canonical() != canon {
		t.Errorf("canonical report changed:\n%s\nwant\n%s", first.Canonical(), canon)
	}
	if second.Total != 4 || second.DecodeIters != 3 || second.BatchPercentile(1) != 3 {
		t.Errorf("second run mis-recorded: %+v", second)
	}
}
