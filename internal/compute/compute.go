// Package compute is SLINFER's headroom-driven compute subsystem (§VI):
// token-level iteration scheduling that always serves the most urgent
// request (Eq. 1, Figure 14), and shadow validation (§VI-C) that virtually
// adds a request to a candidate instance and simulates the node's future
// iteration schedule — with 10% overestimation — to prove no SLO is
// violated before admitting it.
package compute

import (
	"slinfer/internal/engine"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
)

// PickMinHeadroom implements the token-level scheduling cycle: across the
// executor's instances, run the iteration whose driving request has the
// least headroom (Figure 14). ok is false when nothing is runnable.
//
//slinfer:hotpath
func PickMinHeadroom(insts []*engine.Instance, now sim.Time) (best engine.Work, ok bool) {
	var bestH sim.Duration
	for _, inst := range insts {
		w, h, has := inst.NextWork(now)
		if !has {
			continue
		}
		if !ok || h < bestH {
			best, bestH, ok = w, h, true
		}
	}
	return best, ok
}

// PickFIFO is the ablation alternative: serve instances round-robin-by-order
// with prefill priority, ignoring headroom.
//
//slinfer:hotpath
func PickFIFO(insts []*engine.Instance, now sim.Time) (engine.Work, bool) {
	for _, inst := range insts {
		if !inst.HasWork() {
			continue
		}
		if len(inst.WaitingPrefill) > 0 {
			return engine.Work{Inst: inst, Kind: engine.PrefillWork, Req: inst.WaitingPrefill[0]}, true
		}
		return engine.Work{Inst: inst, Kind: engine.DecodeWork}, true
	}
	return engine.Work{}, false
}

// Reason explains a shadow-validation rejection; the three cases of
// Figure 15.
type Reason int

const (
	// OK means validation passed.
	OK Reason = iota
	// NewTTFT: the new request's prefill would finish too late (case 1).
	NewTTFT
	// ExistingDelayed: an existing request would miss a token deadline
	// because of the insertion (case 2).
	ExistingDelayed
	// AggregateDecode: the node's combined decode round would exceed the
	// TPOT SLO (case 3).
	AggregateDecode
)

func (r Reason) String() string {
	switch r {
	case OK:
		return "ok"
	case NewTTFT:
		return "new-request-ttft"
	case ExistingDelayed:
		return "existing-delayed"
	default:
		return "aggregate-decode"
	}
}

// ReqView is the projection of one request for shadow validation.
type ReqView struct {
	// Deadline is the absolute deadline of the request's next token.
	Deadline sim.Time
	// TPOT is the per-token SLO that advances the deadline.
	TPOT sim.Duration
	// InputLen is the prompt length (prefill cost).
	InputLen int
	// Ctx is the current context footprint in tokens.
	Ctx int
	// NeedsPrefill marks requests whose (re-)prefill has not run.
	NeedsPrefill bool
	// IsNew marks the request under validation.
	IsNew bool
}

// InstView is the projection of one instance.
type InstView struct {
	Profile *perfmodel.Profile
	Reqs    []ReqView
	// BlockedUntil delays the instance's first virtual iteration (an
	// in-flight KV resize).
	BlockedUntil sim.Time
}

// viewInstanceInto builds an InstView whose request views live in buf,
// returning the view and the extended buffer. The buffer must be pre-sized
// for every view built from it (growth would reallocate and detach the
// views already handed out).
func viewInstanceInto(inst *engine.Instance, buf []ReqView) (InstView, []ReqView) {
	start := len(buf)
	for _, r := range inst.Running {
		buf = append(buf, ReqView{
			Deadline: r.Tracker.NextDeadline(), TPOT: r.Obj.TPOT,
			InputLen: r.W.InputLen, Ctx: r.ContextTokens(),
		})
	}
	for _, r := range inst.WaitingPrefill {
		// A migrated request re-prefills its whole context.
		buf = append(buf, ReqView{
			Deadline: r.Tracker.NextDeadline(), TPOT: r.Obj.TPOT,
			InputLen: r.ContextTokens(), Ctx: r.ContextTokens(), NeedsPrefill: true,
		})
	}
	return InstView{Profile: inst.Profile, Reqs: buf[start:len(buf):len(buf)]}, buf
}

// ViewRequest builds the candidate's ReqView. For migrated requests the
// prefill cost covers the full context.
func ViewRequest(r *engine.Request) ReqView {
	return ReqView{
		Deadline: r.Tracker.NextDeadline(), TPOT: r.Obj.TPOT,
		InputLen: r.ContextTokens(), Ctx: r.ContextTokens(),
		NeedsPrefill: true, IsNew: true,
	}
}

// Validator performs shadow validation.
type Validator struct {
	// Overestimate inflates every estimated iteration (paper: 10%).
	Overestimate float64
	// DecodeRounds is how many decode iterations per instance to verify
	// after the new request's prefill lands.
	DecodeRounds int
	// MaxSteps bounds the virtual simulation.
	MaxSteps int

	// Validations and Rejections count outcomes for the overhead study.
	Validations int64
	Rejections  int64

	// Scratch storage for the virtual projection, reused across Validate
	// calls (one validation can run per admission attempt, so the copies
	// dominated the allocation profile). A Validator is therefore not safe
	// for concurrent use; each controller owns one.
	projScratch []projInst
	reqScratch  []ReqView
	// Scratch behind the views ViewInstances hands out, kept apart from
	// the projection scratch so those views can feed Validate directly.
	viewScratch    []InstView
	viewReqScratch []ReqView
}

// projInst is one instance of the virtual projection: its deep-copied view
// plus the per-instance state every virtual step reads, kept current by
// rescanning only the instance that ran.
type projInst struct {
	InstView
	// minDeadline is the earliest deadline among Reqs (unset when empty).
	minDeadline sim.Time
	// batch and ctx are the decode batch size and its summed context.
	batch, ctx int
	// rounds counts decode iterations run after the new request prefilled.
	rounds int
}

// NewValidator returns a validator with the paper's defaults.
func NewValidator() *Validator {
	return &Validator{Overestimate: 1.10, DecodeRounds: 2, MaxSteps: 600}
}

// Reset rebinds a recycled validator's tuning and zeroes its outcome
// counters for a new run, keeping the scratch capacity (but dropping the
// stale profiles and request views its backing arrays still pin). Reused
// controllers must call this or ValidationCount accumulates across runs.
func (v *Validator) Reset(overestimate float64, decodeRounds, maxSteps int) {
	v.Overestimate, v.DecodeRounds, v.MaxSteps = overestimate, decodeRounds, maxSteps
	v.Validations, v.Rejections = 0, 0
	v.projScratch = wipe(v.projScratch)
	v.reqScratch = wipe(v.reqScratch)
	v.viewScratch = wipe(v.viewScratch)
	v.viewReqScratch = wipe(v.viewReqScratch)
}

// wipe zeroes a scratch slice's full backing array and returns the empty
// prefix for reuse.
func wipe[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// ViewInstances builds the views of insts, minus skip (nil keeps all), in
// validator-owned scratch, and returns the index of cand among them (-1
// when absent). The views stay valid until the next ViewInstances or Reset
// and Validate never writes them, so they can be passed to it directly.
// The view slice keeps one spare slot, so a caller may append a fresh
// instance's view without reallocating.
//
//slinfer:hotpath
func (v *Validator) ViewInstances(insts []*engine.Instance, skip, cand *engine.Instance) (views []InstView, candIdx int) {
	need := 0
	for _, inst := range insts {
		if inst != skip {
			need += inst.TotalLoad()
		}
	}
	if cap(v.viewReqScratch) < need {
		v.viewReqScratch = make([]ReqView, 0, 2*need)
	}
	if cap(v.viewScratch) < len(insts)+1 {
		v.viewScratch = make([]InstView, 0, 2*(len(insts)+1))
	}
	views, buf := v.viewScratch[:0], v.viewReqScratch[:0]
	candIdx = -1
	for _, inst := range insts {
		if inst == skip {
			continue
		}
		if inst == cand {
			candIdx = len(views)
		}
		var iv InstView
		iv, buf = viewInstanceInto(inst, buf)
		views = append(views, iv)
	}
	return views, candIdx
}

// Validate virtually adds newReq to insts[candIdx] and simulates the
// executor's future schedule from now (the executor is busy until
// busyUntil). It returns OK only if no request misses a deadline in the
// horizon and the aggregate decode round fits the TPOT SLO.
//
// The projection mirrors the live scheduler: min-headroom iteration order,
// estimated durations inflated by Overestimate, decode advancing every
// batch member's deadline.
func (v *Validator) Validate(now, busyUntil sim.Time, insts []InstView, candIdx int, newReq ReqView, tpotSLO sim.Duration) Reason {
	v.Validations++
	reason := v.validate(now, busyUntil, insts, candIdx, newReq, tpotSLO)
	if reason != OK {
		v.Rejections++
	}
	return reason
}

// validate costs O(steps × (K + R_inst)) for K instances and R_inst request
// views on the instance that runs each step: every step compares K cached
// per-instance minima, then rescans only the instance it ran.
//
//slinfer:hotpath
func (v *Validator) validate(now, busyUntil sim.Time, insts []InstView, candIdx int, newReq ReqView, tpotSLO sim.Duration) Reason {
	if candIdx < 0 || candIdx >= len(insts) {
		return NewTTFT
	}
	if cap(v.projScratch) < len(insts) {
		v.projScratch = make([]projInst, len(insts), 2*len(insts))
	}
	proj := v.projScratch[:len(insts)]

	// Case 3 (Figure 15): the aggregate decode round across all colocated
	// instances must fit within one TPOT budget, otherwise decode tokens
	// cannot be sustained even with perfect interleaving. It reads only
	// decode batches, so it runs on the caller's views before any copy.
	var round sim.Duration
	for i := range insts {
		p := &proj[i]
		p.batch, p.ctx = decodeBatch(insts[i].Reqs)
		if i == candIdx && !newReq.NeedsPrefill {
			p.batch++
			p.ctx += newReq.Ctx
		}
		if p.batch == 0 {
			continue
		}
		round += sim.Duration(v.Overestimate) * insts[i].Profile.EstimateDecode(p.batch, p.ctx/p.batch)
	}
	if round > tpotSLO {
		return AggregateDecode
	}

	// Deep-copy the projection so validation never touches live state. The
	// copies live in scratch reused across calls; the request buffer is
	// sized up front so carving per-instance windows never reallocates.
	need := 1 // newReq
	for _, iv := range insts {
		need += len(iv.Reqs)
	}
	if cap(v.reqScratch) < need {
		v.reqScratch = make([]ReqView, 0, 2*need)
	}
	buf := v.reqScratch[:0]
	// owing counts non-empty instances yet to verify DecodeRounds decode
	// iterations after the new request's prefill.
	owing := 0
	for i, iv := range insts {
		start := len(buf)
		buf = append(buf, iv.Reqs...)
		if i == candIdx {
			buf = append(buf, newReq)
		}
		p := &proj[i]
		p.InstView = InstView{Profile: iv.Profile, BlockedUntil: iv.BlockedUntil,
			Reqs: buf[start:len(buf):len(buf)]}
		p.rounds = 0
		if len(p.Reqs) > 0 {
			p.minDeadline = minDeadline(p.Reqs)
			if v.DecodeRounds > 0 {
				owing++
			}
		}
	}

	over := sim.Duration(v.Overestimate)
	if over <= 0 {
		over = 1
	}
	vclock := now
	if busyUntil > vclock {
		vclock = busyUntil
	}
	newPrefilled := false
	for step := 0; step < v.MaxSteps; step++ {
		// Termination: the new request prefilled and every instance
		// verified DecodeRounds decode iterations (or has no work).
		if newPrefilled && owing == 0 {
			return OK
		}
		// Min-headroom instance selection, mirroring PickMinHeadroom.
		// Rounded subtraction is monotone, so fl(minDeadline − vclock) is
		// bit-equal to the least request headroom on the instance.
		best, bestH := -1, sim.Duration(0)
		for i := range proj {
			if len(proj[i].Reqs) == 0 {
				continue
			}
			h := proj[i].minDeadline.Sub(vclock)
			if best == -1 || h < bestH {
				best, bestH = i, h
			}
		}
		if best == -1 {
			return OK
		}
		p := &proj[best]
		start := vclock
		if p.BlockedUntil > start {
			start = p.BlockedUntil
		}
		// Run the most urgent request's iteration.
		r := &p.Reqs[mostUrgentReq(p.Reqs, vclock, bestH)]
		if r.NeedsPrefill {
			end := start.Add(over * p.Profile.EstimatePrefill(r.InputLen))
			if end > r.Deadline {
				if r.IsNew {
					return NewTTFT
				}
				return ExistingDelayed
			}
			r.NeedsPrefill = false
			r.Deadline = r.Deadline.Add(r.TPOT)
			r.Ctx++
			p.batch++
			p.ctx += r.Ctx
			p.minDeadline = minDeadline(p.Reqs)
			if r.IsNew {
				newPrefilled = true
			}
			vclock = end
			continue
		}
		// Decode the whole batch of this instance, refreshing its minimum
		// deadline in the same pass.
		end := start.Add(over * p.Profile.EstimateDecode(p.batch, p.ctx/p.batch))
		var minD sim.Time
		for j := range p.Reqs {
			q := &p.Reqs[j]
			if !q.NeedsPrefill {
				if end > q.Deadline {
					if q.IsNew {
						return NewTTFT
					}
					return ExistingDelayed
				}
				q.Deadline = q.Deadline.Add(q.TPOT)
				q.Ctx++
			}
			if j == 0 || q.Deadline < minD {
				minD = q.Deadline
			}
		}
		p.minDeadline = minD
		p.ctx += p.batch
		if newPrefilled {
			p.rounds++
			if p.rounds == v.DecodeRounds {
				owing--
			}
		}
		vclock = end
	}
	// Horizon exhausted without violation.
	return OK
}

func decodeBatch(reqs []ReqView) (batch, ctx int) {
	for i := range reqs {
		if !reqs[i].NeedsPrefill {
			batch++
			ctx += reqs[i].Ctx
		}
	}
	return batch, ctx
}

// minDeadline returns the earliest deadline of a non-empty request set.
func minDeadline(reqs []ReqView) sim.Time {
	m := reqs[0].Deadline
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Deadline < m {
			m = reqs[i].Deadline
		}
	}
	return m
}

// mostUrgentReq returns the first request whose headroom at now equals h,
// the instance's minimum: the one the live scheduler's strict < picks.
func mostUrgentReq(reqs []ReqView, now sim.Time, h sim.Duration) int {
	for i := range reqs {
		if reqs[i].Deadline.Sub(now) == h {
			return i
		}
	}
	return 0
}
