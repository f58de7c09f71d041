package main

import (
	"time"

	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/fleet"
	"slinfer/internal/hwsim"
	"slinfer/internal/memctl"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// span accumulates one call site's count and time. own excludes the time
// of spans nested inside it: a preemption re-enters the controller through
// the Host, which can re-enter placement, and each layer keeps only its own
// share.
type span struct {
	calls, ok  int64
	total, own time.Duration
}

func (s *span) add(o span) {
	s.calls += o.calls
	s.ok += o.ok
	s.total += o.total
	s.own += o.own
}

type frame struct {
	start time.Time
	child time.Duration
}

// tracer holds the decorator counts of one controller. A controller runs
// on one goroutine, so a tracer needs no locking; fleet shards get one
// tracer each.
type tracer struct {
	stack []frame

	placeNew, admitScaleOut, tryPreempt span
	profile, validate, reentry          span

	// host caches the wrapper of the last Host seen (a controller always
	// passes the same one), so wrapping costs no allocation per call.
	host    policy.Host
	wrapped *tracedHost
}

func (t *tracer) begin() { t.stack = append(t.stack, frame{start: time.Now()}) }

func (t *tracer) end(s *span, ok bool) {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	d := time.Since(f.start)
	s.calls++
	if ok {
		s.ok++
	}
	s.total += d
	s.own += d - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += d
	}
}

func (t *tracer) wrap(h policy.Host) policy.Host {
	if t.wrapped == nil || t.host != h {
		t.host, t.wrapped = h, &tracedHost{inner: h, t: t}
	}
	return t.wrapped
}

// merge folds another tracer's counts into t.
func (t *tracer) merge(o *tracer) {
	t.placeNew.add(o.placeNew)
	t.admitScaleOut.add(o.admitScaleOut)
	t.tryPreempt.add(o.tryPreempt)
	t.profile.add(o.profile)
	t.validate.add(o.validate)
	t.reentry.add(o.reentry)
}

// instrument returns cfg with its placement and preemption policies
// wrapped in decorators reporting to t. Unset policies are first composed
// exactly as core's composePolicies composes them from the knobs, so the
// decorated run makes the same decisions as the plain one (the digest
// check proves it on every traced run).
func instrument(cfg core.Config, t *tracer) core.Config {
	place := cfg.Placement
	if place == nil {
		share := cfg.StaticShare
		if share <= 0 || share > 1 {
			share = 0.5
		}
		place = &policy.BinPack{
			Mode: cfg.Sharing, StaticShare: share,
			UseCPU: cfg.UseCPU, CPUFirst: cfg.CPUFirst, ShadowValidation: cfg.ShadowValidation,
		}
	}
	preempt := cfg.Preemption
	if preempt == nil {
		if cfg.Consolidation {
			preempt = policy.SLOPreserving{}
		} else {
			preempt = policy.NoPreemption{}
		}
	}
	cfg.Placement = &placement{inner: place, t: t}
	cfg.Preemption = &preemption{inner: preempt, t: t}
	return cfg
}

// placement decorates a policy.PlacementPolicy.
type placement struct {
	inner policy.PlacementPolicy
	t     *tracer
}

func (p *placement) Share(m model.Model, class hwsim.DeviceClass) float64 {
	return p.inner.Share(m, class)
}

func (p *placement) HasSlot(h policy.Host, n *cluster.Node, share float64) bool {
	return p.inner.HasSlot(p.t.wrap(h), n, share)
}

func (p *placement) AdmitScaleOut(h policy.Host, n *cluster.Node, m model.Model, share float64, req *engine.Request) bool {
	p.t.begin()
	ok := p.inner.AdmitScaleOut(p.t.wrap(h), n, m, share, req)
	p.t.end(&p.t.admitScaleOut, ok)
	return ok
}

func (p *placement) PlaceNew(h policy.Host, req *engine.Request, m model.Model) bool {
	p.t.begin()
	ok := p.inner.PlaceNew(p.t.wrap(h), req, m)
	p.t.end(&p.t.placeNew, ok)
	return ok
}

func (p *placement) CarveExecutor(h policy.Host, nodes []*cluster.Node, share float64) *cluster.Executor {
	return p.inner.CarveExecutor(p.t.wrap(h), nodes, share)
}

func (p *placement) ReleaseExecutor(h policy.Host, inst *engine.Instance, ex *cluster.Executor) {
	p.inner.ReleaseExecutor(p.t.wrap(h), inst, ex)
}

// preemption decorates a policy.PreemptionPolicy.
type preemption struct {
	inner policy.PreemptionPolicy
	t     *tracer
}

func (p *preemption) TryPreempt(h policy.Host, req *engine.Request, m model.Model) bool {
	p.t.begin()
	ok := p.inner.TryPreempt(p.t.wrap(h), req, m)
	p.t.end(&p.t.tryPreempt, ok)
	return ok
}

// tracedHost decorates the policy.Host a policy calls back into. Profile
// lookups, validations and the actions that re-enter the controller are
// spans of their own, so a policy's self time is its own code only.
type tracedHost struct {
	inner policy.Host
	t     *tracer
}

func (h *tracedHost) Now() sim.Time                                   { return h.inner.Now() }
func (h *tracedHost) Nodes() []*cluster.Node                          { return h.inner.Nodes() }
func (h *tracedHost) NodesOfKind(k hwsim.Kind) []*cluster.Node        { return h.inner.NodesOfKind(k) }
func (h *tracedHost) SlotUsed(nodeIdx int) float64                    { return h.inner.SlotUsed(nodeIdx) }
func (h *tracedHost) AddSlot(nodeIdx int, delta float64)              { h.inner.AddSlot(nodeIdx, delta) }
func (h *tracedHost) ExecutorOf(i *engine.Instance) *cluster.Executor { return h.inner.ExecutorOf(i) }
func (h *tracedHost) SharedExecutor(nodeIdx int) *cluster.Executor {
	return h.inner.SharedExecutor(nodeIdx)
}
func (h *tracedHost) WireExecutor(ex *cluster.Executor) { h.inner.WireExecutor(ex) }
func (h *tracedHost) Model(name string) model.Model     { return h.inner.Model(name) }
func (h *tracedHost) MaxBatch() int                     { return h.inner.MaxBatch() }
func (h *tracedHost) Validator() *compute.Validator     { return h.inner.Validator() }
func (h *tracedHost) RecordPreemption()                 { h.inner.RecordPreemption() }

func (h *tracedHost) RouteCandidates(m model.Model) []*engine.Instance {
	return h.inner.RouteCandidates(m)
}

func (h *tracedHost) FixedLimit(m model.Model, class hwsim.DeviceClass, share float64) (int, bool) {
	return h.inner.FixedLimit(m, class, share)
}

func (h *tracedHost) CreationBytes(m model.Model, n *cluster.Node, share float64, req *engine.Request) int64 {
	return h.inner.CreationBytes(m, n, share, req)
}

func (h *tracedHost) Reclaim(inst *engine.Instance) { h.inner.Reclaim(inst) }

func (h *tracedHost) ArmReclaim(inst *engine.Instance, idle sim.Duration) {
	h.inner.ArmReclaim(inst, idle)
}

func (h *tracedHost) Profile(class hwsim.DeviceClass, m model.Model, share float64) *perfmodel.Profile {
	h.t.begin()
	p := h.inner.Profile(class, m, share)
	h.t.end(&h.t.profile, true)
	return p
}

func (h *tracedHost) ValidateOn(ex *cluster.Executor, cand *engine.Instance, rv compute.ReqView, tpot, candBlock sim.Duration) bool {
	h.t.begin()
	ok := h.inner.ValidateOn(ex, cand, rv, tpot, candBlock)
	h.t.end(&h.t.validate, ok)
	return ok
}

func (h *tracedHost) ValidateScaleOut(ex *cluster.Executor, prof *perfmodel.Profile, req *engine.Request, loadDur sim.Duration) bool {
	h.t.begin()
	ok := h.inner.ValidateScaleOut(ex, prof, req, loadDur)
	h.t.end(&h.t.validate, ok)
	return ok
}

func (h *tracedHost) Spawn(m model.Model, nodes []*cluster.Node, share float64, req *engine.Request) bool {
	h.t.begin()
	ok := h.inner.Spawn(m, nodes, share, req)
	h.t.end(&h.t.reentry, ok)
	return ok
}

func (h *tracedHost) Admit(req *engine.Request, inst *engine.Instance) bool {
	h.t.begin()
	ok := h.inner.Admit(req, inst)
	h.t.end(&h.t.reentry, ok)
	return ok
}

func (h *tracedHost) Migrate(req *engine.Request, from *engine.Instance) {
	h.t.begin()
	h.inner.Migrate(req, from)
	h.t.end(&h.t.reentry, true)
}

// routed is one routing decision: the request a shard was handed.
type routed struct {
	shard int
	req   workload.Request
}

// routing decorates a fleet.RoutingPolicy. The front door calls it from
// its serial section only, so it needs no locking. It keeps every decision
// for the prefix-store replay.
type routing struct {
	inner   fleet.RoutingPolicy
	calls   int64
	total   time.Duration
	decided []routed
}

func (r *routing) Name() string { return r.inner.Name() }

// Reset forwards to the wrapped policy and starts a fresh record: the
// front door resets its policy at the start of every run.
func (r *routing) Reset() {
	r.inner.Reset()
	r.calls, r.total, r.decided = 0, 0, r.decided[:0]
}

func (r *routing) Route(req workload.Request, st *fleet.EpochState) int {
	start := time.Now()
	s := r.inner.Route(req, st)
	r.total += time.Since(start)
	r.calls++
	r.decided = append(r.decided, routed{shard: s, req: req})
	return s
}

// memOps counts memctl ledger transitions by kind.
type memOps struct {
	admitted           [memctl.ResizeKV + 1]int64
	rejected, canceled int64
}

func (m *memOps) OpAdmitted(_ *memctl.NodeMemory, op *memctl.Op) { m.admitted[op.Kind]++ }
func (m *memOps) OpStarted(*memctl.NodeMemory, *memctl.Op)       {}
func (m *memOps) OpCompleted(*memctl.NodeMemory, *memctl.Op)     {}
func (m *memOps) OpRejected(*memctl.NodeMemory, *memctl.Op)      { m.rejected++ }
func (m *memOps) OpCanceled(*memctl.NodeMemory, *memctl.Op)      { m.canceled++ }
