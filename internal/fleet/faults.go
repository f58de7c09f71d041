// Fleet-side fault machinery: the closed rejection-reason enum, the
// RetryPolicy decision point, the compiler that quantizes a faults.Plan
// onto the epoch grid, and the probe that tracks each shard's in-flight
// requests so a crash can pull and re-drive them.
//
// All fault handling runs in the serial front-door section at the top of
// an epoch — between barriers no shard is touched from outside — so chaos
// runs keep the byte-identical-across-Workers determinism contract.
package fleet

import (
	"fmt"
	"math"
	"sort"

	"slinfer/internal/core"
	"slinfer/internal/faults"
	"slinfer/internal/metrics"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// Rejection-ledger reasons. Every Rejection.Reason the fleet emits is one
// of these constants; RejectionReasons is the closed set the reason-enum
// test locks (a new reason must be added here and there, never inlined).
const (
	// ReasonFleetOverload is an admission-policy shed (MaxOutstanding).
	ReasonFleetOverload = "fleet-overload"
	// ReasonRetryExhausted marks a request pulled off a crashed shard
	// whose retry budget ran out.
	ReasonRetryExhausted = "retry-exhausted"
	// ReasonNoHealthyShard marks a request (arrival or re-drive) that
	// found no healthy shard in the active set to land on.
	ReasonNoHealthyShard = "no-healthy-shard"
)

// RejectionReasons is the closed set of reasons the fleet itself emits.
// Custom AdmissionPolicy implementations may mint their own.
var RejectionReasons = []string{
	ReasonFleetOverload,
	ReasonRetryExhausted,
	ReasonNoHealthyShard,
}

// RetryPolicy decides the fate of a request pulled off a crashed shard.
// Like every fleet decision point it runs in the serial front-door
// section and must be deterministic.
type RetryPolicy interface {
	Name() string
	// Retry is called once per pulled request; attempt counts prior
	// re-drives (0 the first time the request is pulled). ok=false sends
	// the request to the rejection ledger as retry-exhausted; otherwise
	// it is re-routed delayEpochs epochs later (0 = this epoch).
	Retry(req workload.Request, attempt int) (ok bool, delayEpochs int)
}

// BudgetedRetry re-drives each pulled request up to Budget times with a
// linear backoff: the k-th re-drive (k starting at 1) waits Backoff*k
// epochs. The zero value retries nothing; the fleet default is
// {Budget: 2, Backoff: 1}.
type BudgetedRetry struct {
	// Budget is the maximum number of re-drives per request.
	Budget int
	// Backoff scales the per-attempt delay in epochs; values < 1 mean
	// re-drive in the same epoch the request was pulled.
	Backoff int
}

func (b BudgetedRetry) Name() string { return fmt.Sprintf("retry@%d", b.Budget) }

func (b BudgetedRetry) Retry(_ workload.Request, attempt int) (bool, int) {
	if attempt >= b.Budget {
		return false, 0
	}
	return true, b.Backoff * (attempt + 1)
}

// actionOp is one compiled fault action. Duration-bearing plan events
// (Slowdown, KVTierDegrade) compile into a start/end action pair.
type actionOp uint8

const (
	opCrash actionOp = iota
	opRecover
	opDrain
	opSlowStart
	opSlowEnd
	opDegradeStart
	opDegradeEnd
)

func (o actionOp) String() string {
	switch o {
	case opCrash:
		return "crash"
	case opRecover:
		return "recover"
	case opDrain:
		return "drain"
	case opSlowStart:
		return "slowdown"
	case opSlowEnd:
		return "slowdown-end"
	case opDegradeStart:
		return "kvdegrade"
	case opDegradeEnd:
		return "kvdegrade-end"
	}
	return "?"
}

// faultAction is a plan event quantized onto the epoch grid.
type faultAction struct {
	epoch  int
	shard  int
	op     actionOp
	factor float64
}

// compilePlan quantizes a fault plan onto the epoch grid: an event fires
// at the top of the first epoch whose start is at or after its At time,
// and a duration-bearing event additionally schedules its restore at the
// first epoch boundary at or after At+Duration (at least one epoch
// later, so every fault is observable). Actions come back sorted by
// (epoch, shard, op) — the deterministic application order.
func compilePlan(p *faults.Plan, epochLen sim.Duration) []faultAction {
	if p.Empty() || epochLen <= 0 {
		return nil
	}
	epochAtOrAfter := func(t sim.Time) int {
		e := int(math.Ceil(float64(t) / float64(epochLen)))
		if e < 0 {
			e = 0
		}
		return e
	}
	var out []faultAction
	for _, ev := range p.Events {
		start := epochAtOrAfter(ev.At)
		switch ev.Kind {
		case faults.ShardCrash:
			out = append(out, faultAction{epoch: start, shard: ev.Shard, op: opCrash})
		case faults.ShardRecover:
			out = append(out, faultAction{epoch: start, shard: ev.Shard, op: opRecover})
		case faults.ShardDrain:
			out = append(out, faultAction{epoch: start, shard: ev.Shard, op: opDrain})
		case faults.Slowdown, faults.KVTierDegrade:
			end := epochAtOrAfter(ev.At.Add(ev.Duration))
			if end <= start {
				end = start + 1
			}
			so, eo := opSlowStart, opSlowEnd
			if ev.Kind == faults.KVTierDegrade {
				so, eo = opDegradeStart, opDegradeEnd
			}
			out = append(out,
				faultAction{epoch: start, shard: ev.Shard, op: so, factor: ev.Factor},
				faultAction{epoch: end, shard: ev.Shard, op: eo},
			)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.epoch != b.epoch {
			return a.epoch < b.epoch
		}
		if a.shard != b.shard {
			return a.shard < b.shard
		}
		return a.op < b.op
	})
	return out
}

// inflightRec is the fleet's bookkeeping for one request currently on a
// shard: the trace arrival index (to re-point the partition on re-drive)
// and the request as last submitted (Arrival rewritten on re-drives).
type inflightRec struct {
	idx int
	req workload.Request
}

// retryEntry is a pulled request waiting out its backoff.
type retryEntry struct {
	rec   inflightRec
	ready int // epoch index at which the re-drive may route
	from  int // shard the request was pulled off (telemetry provenance)
}

// shardProbe is the fleet's per-shard lifecycle witness on chaos runs: it
// maintains the shard's in-flight set (what a crash pulls and re-drives)
// and the per-epoch completion count behind the goodput-dip metric, then
// forwards every event to the shard's invariant suite (or whatever probe
// the configuration installed), so the fleet's bookkeeping is current
// before the suite checks. Only installed when the fault plan is
// non-empty, so fault-free runs pay nothing.
type shardProbe struct {
	sd   *shard
	next core.Probe
}

func (p *shardProbe) Observe(ev core.Event) {
	switch ev.Kind {
	case telemetry.KindAdmit:
		id := ev.Req.W.ID
		idx, ok := p.sd.idxByID[id]
		if !ok {
			idx = -1
		}
		p.sd.inflight[id] = inflightRec{idx: idx, req: ev.Req.W}
	case telemetry.KindComplete:
		delete(p.sd.inflight, ev.Req.W.ID)
		p.sd.completedEpoch++
	case telemetry.KindDrop:
		delete(p.sd.inflight, ev.Req.W.ID)
	}
	if p.next != nil {
		p.next.Observe(ev)
	}
}

func (p *shardProbe) RunFinished(c *core.Controller, rep metrics.Report) {
	if p.next != nil {
		p.next.RunFinished(c, rep)
	}
}

// pullInflight drains the shard's in-flight set into a deterministic
// slice, sorted by (Arrival as last submitted, ID).
func (sd *shard) pullInflight() []inflightRec {
	if len(sd.inflight) == 0 {
		return nil
	}
	out := make([]inflightRec, 0, len(sd.inflight))
	//slinfer:maporder collected slice is sorted by (Arrival, ID) below before anyone reads it
	for _, rec := range sd.inflight {
		out = append(out, rec)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].req, out[j].req
		if a.Arrival != b.Arrival {
			return a.Arrival < b.Arrival
		}
		return a.ID < b.ID
	})
	clear(sd.inflight)
	return out
}

// mergeSegments folds the sequential per-segment reports of one shard
// (produced by crash/recover cycles) into a single shard report.
// MergeReports sums AvgNodesUsed — correct for concurrent shards owning
// disjoint nodes, wrong for time-sliced segments of the same nodes — so
// the node-usage means are re-weighted by segment span afterwards.
// DecodeSpeed is already exact: MergeReports weights it by node-seconds,
// which the segment spans reconstruct.
func mergeSegments(name string, total sim.Duration, segs []metrics.Report) metrics.Report {
	r := metrics.MergeReports(name, total, segs...)
	if total > 0 {
		//slinfer:maporder each key is rewritten independently from the ordered segs slice; no cross-key accumulation
		for kind := range r.AvgNodesUsed {
			var act float64
			for _, s := range segs {
				act += s.AvgNodesUsed[kind] * s.Duration.Seconds()
			}
			r.AvgNodesUsed[kind] = act / total.Seconds()
		}
	}
	return r
}

// recoveryStats derives the canonical-report recovery metrics from the
// per-epoch fleet completion series: the deepest relative goodput
// shortfall after the first fault (against the mean of the pre-fault
// epochs) and how many epochs past the dip goodput took to re-attain
// that baseline (the tail length when it never did).
func recoveryStats(completions []int64, firstFaultEpoch int) (dip float64, recoverEpochs int64) {
	if firstFaultEpoch <= 0 || firstFaultEpoch >= len(completions) {
		return 0, 0
	}
	var base float64
	for _, c := range completions[:firstFaultEpoch] {
		base += float64(c)
	}
	base /= float64(firstFaultEpoch)
	if base <= 0 {
		return 0, 0
	}
	dipEpoch := -1
	for e := firstFaultEpoch; e < len(completions); e++ {
		if d := (base - float64(completions[e])) / base; d > dip {
			dip, dipEpoch = d, e
		}
	}
	if dipEpoch < 0 {
		return 0, 0
	}
	for e := dipEpoch + 1; e < len(completions); e++ {
		if float64(completions[e]) >= base {
			return dip, int64(e - dipEpoch)
		}
	}
	return dip, int64(len(completions) - dipEpoch)
}
