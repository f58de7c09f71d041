package metrics

import (
	"slinfer/internal/hwsim"
	"slinfer/internal/sim"
)

// MergeReports folds per-shard reports of one fleet run into a single
// aggregate report. The inputs are never mutated.
//
// Counters, durations and batch histograms add; TTFT and memory samples
// concatenate; then derive recomputes every rate, percentile and mean
// exactly as BuildReport would for one collector that saw everything
// (pinned by TestMergeReportsPercentiles and TestMergeReportsExactTotals).
// Node usage sums (shards own disjoint nodes), decode speed is the
// activity-weighted mean, and MeanKVUtil weights by KVSamples. Wall-clock
// overheads (ValidationMS, ScheduleUS) measure host time and are not
// merged, matching their exclusion from Canonical.
func MergeReports(system string, duration sim.Duration, reports ...Report) Report {
	r := Report{
		System: system, Duration: duration,
		AvgNodesUsed: map[hwsim.Kind]float64{},
		DecodeSpeed:  map[hwsim.Kind]float64{},
		MemUtilCDF:   map[hwsim.Kind][]float64{},
	}
	decodeAct := map[hwsim.Kind]float64{} // active node-seconds per kind
	var kvSum float64
	for _, in := range reports {
		r.Total += in.Total
		r.Completed += in.Completed
		r.Met += in.Met
		r.Dropped += in.Dropped
		r.ColdStarts += in.ColdStarts
		r.Reclaims += in.Reclaims
		r.Preemptions += in.Preemptions
		r.Migrations += in.Migrations
		r.Evictions += in.Evictions
		r.KVResizes += in.KVResizes

		r.TTFTCDF = append(r.TTFTCDF, in.TTFTCDF...)
		if extra := len(in.batchHist) - len(r.batchHist); extra > 0 {
			r.batchHist = append(r.batchHist, make([]int64, extra)...)
		}
		for b, n := range in.batchHist {
			r.batchHist[b] += n
		}
		for kind, nodes := range in.AvgNodesUsed {
			r.AvgNodesUsed[kind] += nodes
			act := nodes * in.Duration.Seconds()
			decodeAct[kind] += act
			r.DecodeSpeed[kind] += in.DecodeSpeed[kind] * act
		}
		for kind, cdf := range in.MemUtilCDF {
			r.MemUtilCDF[kind] = append(r.MemUtilCDF[kind], cdf...)
		}
		kvSum += in.MeanKVUtil * float64(in.KVSamples)
		r.KVSamples += in.KVSamples
		r.ScalingBusy += in.ScalingBusy
		r.InstanceLifetime += in.InstanceLifetime
		r.PrefixLookups += in.PrefixLookups
		r.PrefixHits += in.PrefixHits
		r.PrefixHitBytes += in.PrefixHitBytes
		r.PrefixMissBytes += in.PrefixMissBytes
		// Fault counters sum; the fleet-level recovery statistics
		// (GoodputDip, RecoverEpochs) are whole-run properties the fleet
		// sets on the merged report afterwards, not per-shard sums.
		r.FaultEvents += in.FaultEvents
		r.Redriven += in.Redriven
		r.RetryExhausted += in.RetryExhausted
	}
	for kind, act := range decodeAct {
		if act > 0 {
			r.DecodeSpeed[kind] /= act
		} else {
			delete(r.DecodeSpeed, kind)
		}
	}
	if r.KVSamples > 0 {
		r.MeanKVUtil = kvSum / float64(r.KVSamples)
	}
	r.derive()
	return r
}
