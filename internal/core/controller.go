package core

import (
	"fmt"
	"sort"
	"time"

	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// Controller orchestrates one serving system over a cluster (§V). Use New,
// then Run with a trace, or Submit requests manually from a simulation.
type Controller struct {
	Sim *sim.Simulator
	Cfg Config

	Cluster   *cluster.Cluster
	Registry  *perfmodel.Registry
	Collector *metrics.Collector
	Validator *compute.Validator

	models     map[string]model.Model
	estimators map[string]*kvcache.Estimator
	instances  map[string][]*engine.Instance
	// prefix is the tiered prefix-sharing KV store (nil when the feature is
	// disabled); shared by every instance of this controller, keyed by
	// (model, token-block chain).
	prefix *kvcache.TieredStore
	// modelOrder pins registration order so every walk over the model
	// tables (reset retirement, sampler ticks) is deterministic; ranging
	// the maps directly would randomize recycling and sample order.
	modelOrder []string

	// elasticExecs maps node index to its shared executor (Elastic mode).
	elasticExecs map[int]*cluster.Executor
	// slotUsed tracks carved compute share per node (Exclusive/Static).
	slotUsed []float64
	// instExec maps instance ID to its executor.
	instExec map[int]*cluster.Executor

	pending    []*engine.Request
	dropEvents map[*engine.Request]sim.Event
	keepAlive  map[int]sim.Event
	loadETA    map[int]sim.Time
	retrying   bool

	// Lazy arrival injection: Run schedules only the next arrival from this
	// cursor instead of pre-loading one event per request, so the event heap
	// stays O(active events) rather than O(total requests).
	arrivals []workload.Request
	arrIdx   int
	// externalArrivals marks a stream-driven run (BeginStream): arrivals
	// come through Submit calls scheduled by an outside driver, so an empty
	// cursor never proves the workload drained.
	externalArrivals bool

	// samplerEv is the pending sampler tick; samplerPeriod re-arms it.
	samplerEv     sim.Event
	samplerPeriod sim.Duration

	// Pre-bound hot-path callbacks (one closure each for the controller's
	// lifetime, reused verbatim across arena resets); scheduled via
	// sim.AtFunc/AfterFunc so the per-event closure allocation disappears
	// from the hot path.
	//slinfer:resetsafe pre-bound for the controller lifetime; reset reuses them unchanged
	fnArrival, fnDrop, fnReclaim, fnPD, fnSampler, fnKeepAlive func(any)

	rng          *sim.RNG
	noiseStreams int
	nextInstID   int
	traceEnd     sim.Time

	// Scratch buffers reused by the admission hot path (shadow validation
	// builds a projection of every colocated instance per candidate, and
	// retryPending snapshots the queue); the simulation is single-threaded
	// per controller, so plain fields suffice.
	viewScratch    []compute.InstView
	reqViewScratch []compute.ReqView
	kvStateScratch []kvcache.ReqState
	retryScratch   []*engine.Request
	// routeCandidates scratch: the returned ordering lives in routeScratch
	// until the next routeCandidates call. Internal callers (tryExisting,
	// tryPlaceAvoiding) iterate it immediately and admit never routes, so
	// they cannot nest; policies get a copy via hostView.RouteCandidates
	// because preemption routes recursively while iterating.
	routeScratch []*engine.Instance
	routeCPU     []*engine.Instance
	routeGPU     []*engine.Instance

	// Arena recycling (reset): instance and estimator shells retired by the
	// previous run on this controller. Instances are recycled ONLY at reset —
	// a mid-run removal may still be referenced by in-flight events.
	spareInsts []*engine.Instance
	spareEsts  []*kvcache.Estimator

	// host is the policy.Host view policies call back through.
	//slinfer:resetsafe stable self-reference wired at construction; carries no per-run state
	host hostView
	// pick is the iteration-scheduling function wired into executors.
	pick func([]*engine.Instance, sim.Time) (engine.Work, bool)
}

// New builds a controller over the given node specs and hosted models.
func New(s *sim.Simulator, specs []hwsim.NodeSpec, models []model.Model, cfg Config) *Controller {
	cfg = cfg.withDefaults().composePolicies()
	c := &Controller{
		Sim: s, Cfg: cfg,
		Cluster:      cluster.New(s, specs),
		Registry:     perfmodel.NewRegistry(cfg.MaxBatch),
		Collector:    metrics.NewCollector(),
		Validator:    &compute.Validator{Overestimate: cfg.Overestimate, DecodeRounds: 3, MaxSteps: 600},
		models:       map[string]model.Model{},
		estimators:   map[string]*kvcache.Estimator{},
		instances:    map[string][]*engine.Instance{},
		elasticExecs: map[int]*cluster.Executor{},
		slotUsed:     make([]float64, len(specs)),
		instExec:     map[int]*cluster.Executor{},
		dropEvents:   map[*engine.Request]sim.Event{},
		keepAlive:    map[int]sim.Event{},
		loadETA:      map[int]sim.Time{},
		rng:          sim.NewRNG(cfg.Seed^0xC0FFEE, cfg.Seed+13),
		nextInstID:   1,
	}
	c.host = hostView{c}
	c.fnArrival = func(any) { c.injectArrival() }
	c.fnDrop = func(a any) { c.drop(a.(*engine.Request)) }
	c.fnReclaim = func(a any) { c.reclaim(a.(*engine.Instance)) }
	c.fnPD = func(a any) { c.finishPDTransfer(a.(*engine.Request)) }
	c.fnSampler = func(any) { c.samplerTick() }
	c.fnKeepAlive = func(a any) {
		inst := a.(*engine.Instance)
		delete(c.keepAlive, inst.ID)
		c.reclaim(inst)
	}
	if cfg.PrefixCache.Enabled {
		c.prefix = kvcache.NewTieredStore(cfg.PrefixCache)
	}
	c.finishSetup(models)
	return c
}

// finishSetup is the tail of construction shared by New and reset: the
// prefix store's event adapter, the iteration-scheduling pick, the
// hosted-model tables, and (under elastic sharing) one wired executor per
// node.
func (c *Controller) finishSetup(models []model.Model) {
	if c.prefix != nil {
		c.prefix.Trace = tierEvents{c}
	}
	// Iteration scheduling: min-headroom unless the FIFO ablation is on.
	// Partitioned executors host one instance each, where headroom order
	// degenerates to FIFO anyway.
	c.pick = compute.PickFIFO
	if c.Cfg.TokenLevelSched || c.Cfg.Sharing != Elastic {
		c.pick = compute.PickMinHeadroom
	}
	for _, m := range models {
		c.RegisterModel(m)
	}
	if c.Cfg.Sharing == Elastic {
		for _, n := range c.Cluster.Nodes {
			ex := n.NewExecutor(1)
			c.wireExecutor(ex)
			c.elasticExecs[n.Idx] = ex
		}
	}
}

// reset rebinds a recycled controller for a new run over (possibly
// different) specs, models, and config — equivalent to New on the same
// simulator, but reusing the cluster, ledgers, collector, validator,
// profile registry, pre-bound callbacks, scratch buffers, and retired
// instance shells. The caller (Arena.NewController) must Reset the shared
// simulator first so no event from the previous run survives into this one.
// Keep this in lockstep with New: any per-run field added to Controller
// must be re-zeroed here.
func (c *Controller) reset(specs []hwsim.NodeSpec, models []model.Model, cfg Config) {
	cfg = cfg.withDefaults().composePolicies()
	c.Cfg = cfg
	c.Cluster.Reset(specs)
	if c.Registry.MaxBatch() != cfg.MaxBatch {
		// Profiles are pure in (class, model, share, maxBatch); a registry
		// carried across runs stays valid unless the batch ceiling changed.
		c.Registry = perfmodel.NewRegistry(cfg.MaxBatch)
	}
	c.Collector.Reset()
	c.Validator.Reset(cfg.Overestimate, 3, 600)
	// Retire the surviving instances (and every model's estimator) into the
	// spare pools before clearing the tables, walking models in
	// registration order so the spare pools refill deterministically and
	// the next run's recycled shells come back in a reproducible order.
	for _, name := range c.modelOrder {
		for _, inst := range c.instances[name] {
			inst.Recycle()
			c.spareInsts = append(c.spareInsts, inst)
		}
		if est := c.estimators[name]; est != nil {
			c.spareEsts = append(c.spareEsts, est)
		}
	}
	c.modelOrder = c.modelOrder[:0]
	clear(c.models)
	clear(c.estimators)
	clear(c.instances)
	clear(c.elasticExecs)
	clear(c.instExec)
	clear(c.dropEvents)
	clear(c.keepAlive)
	clear(c.loadETA)
	if cap(c.slotUsed) < len(specs) {
		c.slotUsed = make([]float64, len(specs))
	} else {
		c.slotUsed = c.slotUsed[:len(specs)]
		clear(c.slotUsed)
	}
	for i := range c.pending {
		c.pending[i] = nil
	}
	c.pending = c.pending[:0]
	clear(c.routeScratch)
	clear(c.routeCPU)
	clear(c.routeGPU)
	c.routeScratch, c.routeCPU, c.routeGPU = c.routeScratch[:0], c.routeCPU[:0], c.routeGPU[:0]
	// The admission scratch buffers rest at length 0 but their backing
	// arrays still pin last run's profiles and requests; wipe to capacity.
	c.viewScratch = clearScratch(c.viewScratch)
	c.reqViewScratch = clearScratch(c.reqViewScratch)
	c.kvStateScratch = clearScratch(c.kvStateScratch)
	c.retryScratch = clearScratch(c.retryScratch)
	c.retrying = false
	c.arrivals, c.arrIdx = nil, 0
	c.externalArrivals = false
	c.samplerEv, c.samplerPeriod = sim.Event{}, 0
	c.rng.Reseed(cfg.Seed^0xC0FFEE, cfg.Seed+13)
	c.noiseStreams = 0
	c.nextInstID = 1
	c.traceEnd = 0
	switch {
	case !cfg.PrefixCache.Enabled:
		c.prefix = nil
	case c.prefix == nil:
		c.prefix = kvcache.NewTieredStore(cfg.PrefixCache)
	default:
		c.prefix.Reset(cfg.PrefixCache)
	}
	c.finishSetup(models)
}

// newEstimator builds (or recycles) a per-model KV-demand estimator.
func (c *Controller) newEstimator(m model.Model) *kvcache.Estimator {
	if n := len(c.spareEsts); n > 0 {
		est := c.spareEsts[n-1]
		c.spareEsts[n-1] = nil
		c.spareEsts = c.spareEsts[:n-1]
		est.Reset(m.MaxContext, 256)
		return est
	}
	return kvcache.NewEstimator(m.MaxContext, 256)
}

// takeInstance returns an empty instance shell, recycled when available.
func (c *Controller) takeInstance() *engine.Instance {
	if n := len(c.spareInsts); n > 0 {
		inst := c.spareInsts[n-1]
		c.spareInsts[n-1] = nil
		c.spareInsts = c.spareInsts[:n-1]
		return inst
	}
	return &engine.Instance{}
}

// RegisterModel adds a hosted model (at construction via finishSetup, or
// after it) and records its place in the deterministic walk order;
// re-registration keeps the original slot.
func (c *Controller) RegisterModel(m model.Model) {
	if _, known := c.models[m.Name]; !known {
		c.modelOrder = append(c.modelOrder, m.Name)
	}
	c.models[m.Name] = m
	c.estimators[m.Name] = c.newEstimator(m)
}

// clearScratch wipes a scratch slice's full backing array (dropping any
// pointers it pins) and returns the empty prefix for reuse.
func clearScratch[T any](s []T) []T {
	s = s[:cap(s)]
	clear(s)
	return s[:0]
}

// Run replays a trace to completion (plus drain grace) and returns the
// metrics report.
func (c *Controller) Run(tr workload.Trace) metrics.Report {
	c.traceEnd = sim.Time(0).Add(tr.Duration)
	c.Collector.Reserve(len(tr.Requests))
	c.startArrivals(tr.Requests)
	c.scheduleSampler(c.Cfg.MemSamplePeriod)
	c.Sim.RunUntil(c.traceEnd.Add(c.Cfg.DrainGrace))
	return c.finishRun(tr.Duration + c.Cfg.DrainGrace)
}

// finishRun is the report tail Run and EndStream share: stop the sampler,
// finalize the collector, build the report over duration, and hand it to
// the probe's RunFinished.
func (c *Controller) finishRun(duration sim.Duration) metrics.Report {
	c.stopSampler()
	c.Collector.Finalize(c.Sim.Now())
	c.Collector.ValidationCount = c.Validator.Validations
	rep := c.Collector.BuildReport(c.Cfg.Name, duration)
	if p := c.Cfg.Probe; p != nil {
		p.RunFinished(c, rep)
	}
	return rep
}

// startArrivals installs the trace's requests behind the lazy-injection
// cursor. Traces are sorted by construction (workload.Generate and every
// traceio transform restore the invariant); an unsorted trace handed in
// directly is stably sorted first so injection order still matches the
// eager-scheduling order (ties keep their index order, exactly as the old
// per-request seq numbers broke them).
func (c *Controller) startArrivals(reqs []workload.Request) {
	for i := 1; i < len(reqs); i++ {
		if reqs[i].Arrival < reqs[i-1].Arrival {
			sorted := append([]workload.Request(nil), reqs...)
			sort.SliceStable(sorted, func(a, b int) bool {
				return sorted[a].Arrival < sorted[b].Arrival
			})
			reqs = sorted
			break
		}
	}
	c.arrivals, c.arrIdx = reqs, 0
	c.scheduleNextArrival()
}

func (c *Controller) scheduleNextArrival() {
	if c.arrIdx >= len(c.arrivals) {
		c.arrivals = nil
		return
	}
	c.Sim.AtFunc(c.arrivals[c.arrIdx].Arrival, c.fnArrival, nil)
}

// injectArrival submits the cursor's request. The next arrival is scheduled
// before Submit runs so that, on exact-time ties, a later arrival still
// precedes any events the current submission spawns — the same relative
// order eager pre-scheduling produced for ties among arrivals and against
// events spawned downstream of earlier arrivals.
//
// Known departure from eager pre-scheduling: an arrival whose timestamp
// exactly (bit-for-bit) equals that of an event scheduled before the
// previous arrival fired — a sampler tick, a drop deadline, a keep-alive
// timer — now fires after it instead of before (its seq is assigned later).
// Generated workloads have continuous arrival times, so such ties have
// probability zero there (the golden, smoke-grid, and metamorphic suites
// confirm byte-identical reports); hand-written traces with round
// timestamps landing exactly on a timer tick get a still-deterministic but
// different tie order.
func (c *Controller) injectArrival() {
	w := c.arrivals[c.arrIdx]
	c.arrIdx++
	c.scheduleNextArrival()
	c.Submit(w)
}

// arrivalsExhausted reports whether the lazy cursor has injected the whole
// trace.
func (c *Controller) arrivalsExhausted() bool { return c.arrIdx >= len(c.arrivals) }

// Submit admits one request into the system.
func (c *Controller) Submit(w workload.Request) {
	m, ok := c.models[w.ModelName]
	if !ok {
		panic(fmt.Sprintf("core: unknown model %q", w.ModelName))
	}
	if w.InputLen > m.MaxContext {
		w.InputLen = m.MaxContext
	}
	obj := slo.Default(w.InputLen)
	if c.Cfg.SLO != nil {
		obj = c.Cfg.SLO(w.InputLen)
	}
	req := engine.NewRequestWith(w, obj)
	if c.prefix != nil && w.PrefixKey != "" {
		// Prefix-cache lookup happens once at admission: the cached leading
		// span shortens the prefill, the transfer cost (CPU-tier promotion)
		// rides on it, and the hit/miss bytes feed the run's hit-rate
		// counters. Keyless requests bypass the store entirely.
		perTok := m.KVBytesPerToken()
		hitTokens, xfer := c.prefix.Lookup(w.ModelName, w.PrefixKey, w.InputLen, perTok)
		req.CachedPrefixTokens = hitTokens
		req.PrefixXfer = xfer
		c.Collector.RecordPrefixLookup(int64(hitTokens)*perTok,
			int64(w.InputLen-hitTokens)*perTok)
		kind := telemetry.KindPrefixMiss
		if hitTokens > 0 {
			kind = telemetry.KindPrefixHit
		}
		c.emit(Event{Kind: kind, Req: req, A: int64(hitTokens), B: int64(w.InputLen)})
	}
	c.Collector.RecordArrival()
	c.emit(Event{Kind: telemetry.KindAdmit, Req: req,
		A: int64(req.W.InputLen), B: int64(req.CachedPrefixTokens)})
	if !c.tryPlace(req) {
		c.enqueue(req)
	}
}

// tryPlace attempts the full §V placement pipeline. It returns false when
// the request must queue.
func (c *Controller) tryPlace(req *engine.Request) bool {
	m := c.models[req.W.ModelName]
	placed := false
	switch {
	// 1. Existing instances, CPU first, largest batch first (§VIII-B).
	case c.tryExisting(req, m):
		placed = true
	// 2. Proactive consolidation: preempt smaller neighbours so an existing
	//    instance can scale up in place (§VIII-A).
	case c.Cfg.Preemption.TryPreempt(c.host, req, m):
		placed = true
	// 3. Scale out: a new instance via the placement policy.
	case c.Cfg.Placement.PlaceNew(c.host, req, m):
		placed = true
	}
	if placed && c.Cfg.PD {
		// PD disaggregation launches dedicated instances per stage (§IX-G);
		// warm the decode instance while the prefill runs so the handoff
		// does not pay a cold start.
		c.ensureDecodeInstance(m, req)
	}
	return placed
}

// ensureDecodeInstance guarantees a DecodeOnly instance exists for a model.
func (c *Controller) ensureDecodeInstance(m model.Model, req *engine.Request) {
	for _, inst := range c.instances[m.Name] {
		if inst.Role == engine.DecodeOnly &&
			(inst.State == engine.Active || inst.State == engine.Loading) {
			return
		}
	}
	c.createDecodeInstance(m, req)
}

// tryExisting routes to a live instance per the reactive bin-packing order.
func (c *Controller) tryExisting(req *engine.Request, m model.Model) bool {
	cands := c.routeCandidates(m, wantRole(c.Cfg, engine.PrefillWork))
	for _, inst := range cands {
		if c.admit(req, inst) {
			return true
		}
	}
	return false
}

// routeCandidates returns live instances of a model in routing order:
// CPU before GPU (when CPUFirst), then §VIII-B largest-batch-first. The
// result is backed by the controller's route scratch — valid until the next
// routeCandidates call, so iterate it, don't keep it.
func (c *Controller) routeCandidates(m model.Model, role engine.Role) []*engine.Instance {
	cpu, gpu := c.routeCPU[:0], c.routeGPU[:0]
	for _, inst := range c.instances[m.Name] {
		if inst.Role != role {
			continue
		}
		if inst.State != engine.Active && inst.State != engine.Loading {
			continue
		}
		if inst.Class.Kind() == hwsim.CPU {
			cpu = append(cpu, inst)
		} else {
			gpu = append(gpu, inst)
		}
	}
	consolidator.SortRoute(cpu)
	consolidator.SortRoute(gpu)
	out := c.routeScratch[:0]
	if c.Cfg.CPUFirst {
		out = append(append(out, cpu...), gpu...)
	} else {
		out = append(append(out, gpu...), cpu...)
	}
	c.routeCPU, c.routeGPU, c.routeScratch = cpu, gpu, out
	return out
}

// wantRole returns the instance role requests are admitted to.
func wantRole(cfg Config, _ engine.WorkKind) engine.Role {
	if cfg.PD {
		return engine.PrefillOnly
	}
	return engine.Mixed
}

// admit runs the §V admission pipeline for one candidate instance:
// CPU-capability gate, fixed limit or shadow validation, then the memory
// shadow check with §VII-D compromise. On success the request joins the
// instance's prefill queue.
func (c *Controller) admit(req *engine.Request, inst *engine.Instance) bool {
	if inst.TotalLoad() >= c.Cfg.MaxBatch {
		return false
	}
	// CPU gate: SLINFER profiles CPUs in advance and falls back to GPU
	// when a CPU cannot meet the request's SLO (§V). Baselines admit
	// blindly up to their fixed limits.
	if c.Cfg.ShadowValidation && inst.Class.Kind() == hwsim.CPU {
		if !inst.Profile.CanMeet(req.W.InputLen, req.Obj) {
			return false
		}
	}
	if lim := c.Cfg.FixedLimit; lim != nil {
		if inst.TotalLoad() >= lim(inst.Model, inst.Class, inst.Share) {
			return false
		}
	} else if c.Cfg.ShadowValidation {
		if !c.shadowValidate(req, inst) {
			return false
		}
	}
	// Memory shadow check + scale-up (§VII-B, §VII-D). Static-memory
	// instances check residual capacity instead.
	if !c.ensureMemoryFor(req, inst) {
		return false
	}
	c.place(req, inst)
	return true
}

// shadowValidate projects the candidate's executor forward with the request
// virtually added (§VI-C), measuring real scheduling overhead (Figure 33).
func (c *Controller) shadowValidate(req *engine.Request, inst *engine.Instance) bool {
	ex := c.instExec[inst.ID]
	if ex == nil {
		return false
	}
	rv := compute.ViewRequest(req)
	if inst.State == engine.Loading {
		// The request will receive a cold-start grace window (§IX-A);
		// validate against the graced deadline.
		rv.Deadline = rv.Deadline.Add(c.specOf(inst).LoadTime(inst.Model))
	}
	return c.validateOn(ex, inst, nil, c.prospectiveResizeBlock(req, inst), rv, req.Obj.TPOT)
}

// prospectiveResizeBlock estimates how long the KV scale-up this admission
// would trigger will block the candidate instance (§VII-B's early scale-up
// is not free: Figure 17's costs stall iterations).
func (c *Controller) prospectiveResizeBlock(req *engine.Request, inst *engine.Instance) sim.Duration {
	if !c.Cfg.DynamicMemory || c.isStaticInstance(inst) || inst.ResizeInFlight {
		return 0
	}
	est := c.estimators[inst.Model.Name]
	states := append(inst.AppendKVReqStates(c.kvStateScratch[:0]),
		kvcache.ReqState{InputLen: req.W.InputLen})
	c.kvStateScratch = states[:0]
	require := est.RequireBytes(inst.Model, states, len(inst.NodeIdxs))
	cur := inst.Cache.CapacityBytes()
	if !c.Cfg.Watermark.NeedScaleUp(require, cur) {
		return 0
	}
	return kvcache.ScaleTime(cur, c.Cfg.Watermark.Recommend(require))
}

// beginViews prepares the view scratch for projecting ex's instances (plus
// one candidate view). Validate deep-copies its inputs, so both buffers are
// free for reuse as soon as it returns; the request-view buffer is sized up
// front because growth mid-build would detach earlier views' sub-slices.
func (c *Controller) beginViews(ex *cluster.Executor) ([]compute.InstView, []compute.ReqView) {
	need := 0
	for _, other := range ex.Instances {
		need += other.TotalLoad()
	}
	if cap(c.reqViewScratch) < need {
		c.reqViewScratch = make([]compute.ReqView, 0, need*2)
	}
	if cap(c.viewScratch) < len(ex.Instances)+1 {
		c.viewScratch = make([]compute.InstView, 0, 2*(len(ex.Instances)+1))
	}
	return c.viewScratch[:0], c.reqViewScratch[:0]
}

// endViews returns the (possibly grown) scratch backing for reuse.
func (c *Controller) endViews(views []compute.InstView, rbuf []compute.ReqView) {
	c.viewScratch, c.reqViewScratch = views[:0], rbuf[:0]
}

// validateOn runs §VI-C shadow validation of adding rv to executor ex. The
// candidate is either cand, an instance already on ex whose view is
// additionally blocked for candBlock (a prospective resize), or — when prof
// is non-nil — a fresh instance with that profile, blocked for candBlock
// while it loads (a scale-out must pass the same validation as a scale-up).
func (c *Controller) validateOn(ex *cluster.Executor, cand *engine.Instance, prof *perfmodel.Profile, candBlock sim.Duration, rv compute.ReqView, tpot sim.Duration) bool {
	var start time.Time
	if c.Cfg.MeasureOverhead {
		start = time.Now() //slinfer:wallclock MeasureOverhead-gated validator profiling; feeds only Collector.ValidationNs, never event times
	}
	now := c.Sim.Now()
	views, rbuf := c.beginViews(ex)
	candIdx := -1
	for _, other := range ex.Instances {
		var v compute.InstView
		v, rbuf = compute.ViewInstanceInto(other, rbuf)
		if other.ResizeInFlight {
			// The resize op recorded its landing time when it was issued;
			// charge only the remaining fraction, not a fresh full-size
			// transfer (which overstated the stall several-fold for resizes
			// caught near completion).
			v.BlockedUntil = other.ResizeDoneAt
		}
		if eta, ok := c.loadETA[other.ID]; ok && eta > v.BlockedUntil {
			v.BlockedUntil = eta // cold start still in progress
		}
		if other == cand {
			candIdx = len(views)
			if b := now.Add(candBlock); candBlock > 0 && b > v.BlockedUntil {
				v.BlockedUntil = b
			}
		}
		views = append(views, v)
	}
	if prof != nil {
		candIdx = len(views)
		views = append(views, compute.InstView{Profile: prof, BlockedUntil: now.Add(candBlock)})
	}
	busyUntil := now
	if ex.Busy() {
		busyUntil = ex.BusyUntil()
	}
	got := c.Validator.Validate(now, busyUntil, views, candIdx, rv, tpot)
	c.endViews(views, rbuf)
	if c.Cfg.MeasureOverhead {
		c.Collector.ValidationNs += time.Since(start).Nanoseconds() //slinfer:wallclock diagnostic overhead counter only
	}
	return got == compute.OK
}

// place finalizes an admission.
func (c *Controller) place(req *engine.Request, inst *engine.Instance) {
	if ev, ok := c.dropEvents[req]; ok {
		ev.Cancel()
		delete(c.dropEvents, req)
	}
	c.removePending(req)
	inst.Admit(req)
	c.emit(Event{Kind: telemetry.KindPlace, Req: req, Inst: inst})
	if inst.State == engine.Loading {
		// Cold-start grace equal to the load duration (§IX-A).
		req.Tracker.AddGrace(c.specOf(inst).LoadTime(inst.Model))
	}
	c.cancelKeepAlive(inst)
	inst.LastActiveAt = c.Sim.Now()
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.Kick()
	}
}

// enqueue parks a request pending capacity, with a proactive drop at its
// TTFT deadline (§IX-B: systems drop requests whose queueing delay exceeds
// the TTFT SLO).
func (c *Controller) enqueue(req *engine.Request) {
	c.pending = append(c.pending, req)
	c.emit(Event{Kind: telemetry.KindEnqueue, Req: req})
	deadline := req.Tracker.NextDeadline()
	if deadline <= c.Sim.Now() {
		c.drop(req)
		return
	}
	c.dropEvents[req] = c.Sim.AtFunc(deadline, c.fnDrop, req)
}

func (c *Controller) drop(req *engine.Request) {
	if req.State != engine.Queued {
		return
	}
	req.State = engine.Dropped
	req.Tracker.MarkDropped()
	delete(c.dropEvents, req)
	c.removePending(req)
	c.Collector.RecordDrop()
	c.emit(Event{Kind: telemetry.KindDrop, Req: req})
}

func (c *Controller) removePending(req *engine.Request) {
	for i, r := range c.pending {
		if r == req {
			c.pending = append(c.pending[:i], c.pending[i+1:]...)
			return
		}
	}
}

// retryPending re-attempts placement of queued requests after capacity
// frees up. Re-entrancy is suppressed: placement can trigger completions
// that call back into retryPending.
func (c *Controller) retryPending() {
	if c.retrying || len(c.pending) == 0 {
		return
	}
	c.retrying = true
	defer func() { c.retrying = false }()
	// Snapshot into reusable scratch: tryPlace mutates c.pending, and the
	// retrying flag guarantees no nested use of the buffer.
	queue := append(c.retryScratch[:0], c.pending...)
	c.retryScratch = queue
	for _, req := range queue {
		if req.State != engine.Queued {
			continue
		}
		c.tryPlace(req)
	}
	for i := range queue {
		queue[i] = nil // do not pin completed requests
	}
}

func (c *Controller) specOf(inst *engine.Instance) hwsim.NodeSpec {
	return c.Cluster.Nodes[inst.NodeIdxs[0]].Spec
}

// instancesOf returns the live instances of a model (exported for tests and
// experiments).
func (c *Controller) InstancesOf(name string) []*engine.Instance {
	return append([]*engine.Instance(nil), c.instances[name]...)
}

// PendingCount returns the queued-request count.
func (c *Controller) PendingCount() int { return len(c.pending) }

// PrefixStore exposes the tiered prefix store (nil when prefix sharing is
// disabled). The invariant suite attaches its conservation observer here and
// the fleet layer snapshots per-root residency for KV-affinity routing.
func (c *Controller) PrefixStore() *kvcache.TieredStore { return c.prefix }
