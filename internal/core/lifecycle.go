package core

import (
	"fmt"
	"time"

	"slinfer/internal/cluster"
	"slinfer/internal/consolidator"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
)

// ---- Executor wiring -------------------------------------------------------

// wireExecutor installs the compute policy and iteration handlers.
func (c *Controller) wireExecutor(ex *cluster.Executor) {
	if c.Cfg.MeasureOverhead {
		ex.Pick = func(e *cluster.Executor) (engine.Work, bool) {
			start := time.Now() //slinfer:wallclock MeasureOverhead-gated scheduler profiling; feeds only Collector.ScheduleNs, never event times
			w, ok := c.pick(e.Instances, c.Sim.Now())
			c.Collector.ScheduleNs += time.Since(start).Nanoseconds() //slinfer:wallclock diagnostic overhead counter only
			c.Collector.ScheduleCount++
			return w, ok
		}
	} else {
		ex.Pick = func(e *cluster.Executor) (engine.Work, bool) {
			c.Collector.ScheduleCount++
			return c.pick(e.Instances, c.Sim.Now())
		}
	}
	ex.OnDone = c.onIterationDone
	amp := c.Cfg.Fluctuation
	stress := hwsim.StressSlowdown(c.Cfg.CPUStressProcs, 32)
	if amp > 0 || stress != 1 {
		// Derive is pure in (seed, name), so each executor needs its own
		// stream name or they would all draw identical noise. Executor
		// wiring order is deterministic, making the counter reproducible.
		c.noiseStreams++
		noise := c.rng.Derive(fmt.Sprintf("noise#%d", c.noiseStreams))
		ex.Noise = func() float64 {
			return stress * (1 + amp*(2*noise.Float64()-1))
		}
	}
}

// onIterationDone applies an iteration's effects: token emission, request
// completion, KV growth, and follow-up scheduling.
//
//slinfer:hotpath
func (c *Controller) onIterationDone(ex *cluster.Executor, w engine.Work, dur sim.Duration) {
	inst := w.Inst
	if inst.State == engine.Unloading {
		// The iteration was in flight when the instance was torn down (a
		// preemption victim mid-prefill): its requests have migrated and
		// its cache is zeroed, so applying the iteration would misread the
		// failed KV growth as §VII-D underestimation and issue a resize
		// against the teardown's own unload.
		return
	}
	now := c.Sim.Now()
	kind := inst.Class.Kind()
	switch w.Kind {
	case engine.PrefillWork:
		req := w.Req
		if !inst.CompletePrefill(req, now) {
			// §VII-D: the admitted request's prompt does not fit — the
			// estimate was too low. Grow now; the request retries its
			// prefill after the resize.
			c.handleUnderestimation(inst)
			return
		}
		c.Collector.DecodeTokens[kind]++ // the first output token
		c.emit(Event{Kind: telemetry.KindFirstToken, Req: req, Inst: inst})
		switch req.State {
		case engine.Done:
			c.completeRequest(req, inst)
		case engine.Transferring:
			c.startPDTransfer(req, inst)
		}
	case engine.DecodeWork:
		batch := inst.BatchSize()
		finished, underestimated := inst.CompleteDecode(now)
		if underestimated {
			c.handleUnderestimation(inst)
			return
		}
		c.Collector.RecordDecode(kind, batch)
		c.emit(Event{Kind: telemetry.KindDecodeIter, Inst: inst,
			A: int64(batch), B: int64(float64(dur) * 1e9)})
		for _, req := range finished {
			c.completeRequest(req, inst)
		}
	}
}

// completeRequest finalizes one finished request.
//
//slinfer:hotpath
func (c *Controller) completeRequest(req *engine.Request, inst *engine.Instance) {
	est := c.estimators[req.W.ModelName]
	est.Observe(req.W.OutputLen)
	if c.prefix != nil && req.W.PrefixKey != "" {
		// A completion demotes its context into the tiered store instead of
		// dropping it: the full prompt+response becomes the shareable prefix
		// the session's next turn looks up.
		c.prefix.Insert(req.W.ModelName, req.W.PrefixKey, req.ContextTokens(),
			inst.Model.KVBytesPerToken())
	}
	ttft, haveTTFT := req.Tracker.TTFT()
	c.Collector.RecordCompletion(req.Tracker.Met(), ttft, haveTTFT)
	c.emit(Event{Kind: telemetry.KindComplete, Req: req, Inst: inst, A: int64(req.Generated)})
	c.recheckKV(inst)
	if inst.Idle() && inst.State == engine.Active {
		c.scheduleKeepAlive(inst)
	}
	c.retryPending()
}

// ---- Memory subsystem integration ------------------------------------------

// ensureMemoryFor performs the shadow memory check of §V and issues the
// early scale-up of §VII-B (with the §VII-D compromise) for admitting req
// into inst. Static-memory instances just check residual KV capacity.
func (c *Controller) ensureMemoryFor(req *engine.Request, inst *engine.Instance) bool {
	needTokens := int64(req.W.InputLen) + 1
	if !c.Cfg.DynamicMemory || c.isStaticInstance(inst) {
		return inst.Cache.FitsTokens(needTokens)
	}
	est := c.estimators[inst.Model.Name]
	states := append(inst.AppendKVReqStates(c.kvStateScratch[:0]),
		kvcache.ReqState{InputLen: req.W.InputLen})
	c.kvStateScratch = states[:0]
	div := len(inst.NodeIdxs)
	require := est.RequireBytes(inst.Model, states, div)
	cur := inst.Cache.CapacityBytes()
	if !c.Cfg.Watermark.NeedScaleUp(require, cur) {
		return true
	}
	if inst.ResizeInFlight {
		// One resize at a time per instance. Ride along when the in-flight
		// target covers the requirement; otherwise accept as long as the
		// prompt itself will fit and a follow-up scale-up is plausible —
		// recheckKV issues it when the current resize lands, and the
		// §VII-D underestimation path backstops the rare overflow.
		if inst.KVTarget >= require {
			return true
		}
		promptNeed := inst.Cache.UsedBytes() +
			(int64(req.W.InputLen)+65)*inst.Model.KVBytesPerToken()/int64(div)
		if inst.KVTarget < promptNeed {
			return false
		}
		for _, idx := range inst.NodeIdxs {
			if !c.Cluster.Nodes[idx].Mem.CanAdmit(require - inst.KVTarget) {
				return false
			}
		}
		return true
	}
	recommend := c.Cfg.Watermark.Recommend(require)
	if c.issueResize(inst, recommend) {
		return true
	}
	// §VII-D compromise: accept with just Mrequire.
	return c.issueResize(inst, require)
}

// issueResize submits one KV resize through the hazard-aware orchestrator.
// Returns false when the optimistic budget rejects it.
func (c *Controller) issueResize(inst *engine.Instance, target int64) bool {
	cur := inst.Cache.CapacityBytes()
	if target < inst.Cache.UsedBytes() {
		target = inst.Cache.UsedBytes()
	}
	if target == cur {
		return true
	}
	// All host nodes must admit (TP shards resize together).
	for _, idx := range inst.NodeIdxs {
		if !c.Cluster.Nodes[idx].Mem.CanAdmit(target - cur) {
			return false
		}
	}
	dur := kvcache.ScaleTime(cur, target)
	inst.ResizeInFlight = true
	inst.KVTarget = target
	inst.ResizeDoneAt = c.Sim.Now().Add(dur)
	remaining := len(inst.NodeIdxs)
	onComplete := func() {
		remaining--
		if remaining > 0 {
			return
		}
		c.finishResize(inst, target, dur)
	}
	for _, idx := range inst.NodeIdxs {
		nm := c.Cluster.Nodes[idx].Mem
		op := nm.AcquireOp()
		op.Kind, op.Owner = memctl.ResizeKV, inst.KVOwner()
		op.From, op.To, op.Duration = cur, target, dur
		op.OnComplete = onComplete
		if !nm.Demand(op) {
			// First node admitted is impossible here: CanAdmit pre-checked
			// and nothing ran in between (single-threaded simulation).
			panic("core: resize demand rejected after CanAdmit")
		}
	}
	return true
}

func (c *Controller) finishResize(inst *engine.Instance, target int64, dur sim.Duration) {
	inst.Cache.SetCapacity(target)
	inst.ResizeInFlight = false
	inst.ResizeDoneAt = 0
	inst.ScalingBusy += dur
	c.Collector.ScalingBusy += dur
	c.Collector.KVResizes++
	if inst.State == engine.Unloading {
		return
	}
	// Demands may have shifted while the resize ran.
	c.recheckKV(inst)
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.Kick()
	}
	c.retryPending()
}

// recheckKV applies the watermark policy against current demand: early
// scale-up when short, lazy scale-down when far over (§VII-B).
func (c *Controller) recheckKV(inst *engine.Instance) {
	if !c.Cfg.DynamicMemory || c.isStaticInstance(inst) || inst.ResizeInFlight {
		return
	}
	if inst.State != engine.Active {
		return
	}
	est := c.estimators[inst.Model.Name]
	states := inst.AppendKVReqStates(c.kvStateScratch[:0])
	c.kvStateScratch = states[:0]
	require := est.RequireBytes(inst.Model, states, len(inst.NodeIdxs))
	cur := inst.Cache.CapacityBytes()
	switch {
	case c.Cfg.Watermark.NeedScaleUp(require, cur):
		if !c.issueResize(inst, c.Cfg.Watermark.Recommend(require)) {
			c.issueResize(inst, require)
		}
	case c.Cfg.Watermark.ShouldScaleDown(require, cur):
		c.issueResize(inst, c.Cfg.Watermark.Recommend(require))
	}
}

// handleUnderestimation implements §VII-D: try to grow the cache again; if
// the node cannot fit it, evict the request with the longest headroom and
// reschedule it elsewhere.
func (c *Controller) handleUnderestimation(inst *engine.Instance) {
	if inst.ResizeInFlight {
		return // a resize is already on its way
	}
	// Grow by 25% of current (at least one request's worth).
	target := inst.Cache.CapacityBytes() + inst.Cache.CapacityBytes()/4
	minGrow := inst.Cache.UsedBytes() + 2048*inst.Model.KVBytesPerToken()
	if target < minGrow {
		target = minGrow
	}
	if c.issueResize(inst, target) {
		return
	}
	// Evict the longest-headroom request.
	var victim *engine.Request
	now := c.Sim.Now()
	for _, r := range inst.Running {
		if victim == nil || r.Headroom(now) > victim.Headroom(now) {
			victim = r
		}
	}
	if victim == nil {
		for _, r := range inst.WaitingPrefill {
			if victim == nil || r.Headroom(now) > victim.Headroom(now) {
				victim = r
			}
		}
	}
	if victim == nil {
		return
	}
	c.migrate(victim, inst)
	c.Collector.Evictions++
}

// migrate pulls a request off an instance and re-places it. The request
// keeps the tokens it already generated; its context (prompt + generated)
// is re-prefilled at the destination.
func (c *Controller) migrate(req *engine.Request, from *engine.Instance) {
	if !from.RemoveRunning(req) {
		from.RemoveWaiting(req)
	}
	req.State = engine.Queued
	req.Inst = nil
	req.Migrations++
	c.Collector.Migrations++
	c.emit(Event{Kind: telemetry.KindPreempt, Req: req, Inst: from, A: int64(req.Migrations)})
	if !c.tryPlaceAvoiding(req, from) {
		c.enqueue(req)
	}
}

// tryPlaceAvoiding is tryPlace minus the originating instance and minus
// recursion into preemption (avoids ping-pong).
func (c *Controller) tryPlaceAvoiding(req *engine.Request, avoid *engine.Instance) bool {
	m := c.models[req.W.ModelName]
	for _, inst := range c.routeCandidates(m, wantRole(c.Cfg, engine.PrefillWork)) {
		if inst == avoid {
			continue
		}
		if c.admit(req, inst) {
			return true
		}
	}
	return c.Cfg.Placement.PlaceNew(c.host, req, m)
}

// ---- Instance lifecycle ------------------------------------------------------

// isStaticInstance reports whether the instance's memory was allocated
// whole at creation (exclusive/static baselines and TP fallback models).
func (c *Controller) isStaticInstance(inst *engine.Instance) bool {
	return !c.Cfg.DynamicMemory || len(inst.NodeIdxs) > 1
}

// creationBytes returns the per-node memory a new instance needs at
// creation: weights + activation reserve + its initial KV allocation.
// Negative means the node can never host it.
func (c *Controller) creationBytes(m model.Model, n *cluster.Node, share float64, req *engine.Request) int64 {
	weights := m.WeightBytes() + hwsim.ActivationReserve
	if c.Cfg.DynamicMemory {
		est := c.estimators[m.Name]
		kv := c.Cfg.Watermark.Recommend(est.RequireBytes(m,
			[]kvcache.ReqState{{InputLen: req.W.InputLen}}, 1))
		return weights + kv
	}
	// Static memory: the instance takes its whole share.
	memShare := int64(float64(n.Spec.MemBytes) * share)
	kv := memShare - weights
	minKV := int64(req.W.InputLen+1024) * m.KVBytesPerToken()
	if kv < minKV {
		return -1
	}
	return memShare
}

// createInstance builds the instance, carves its executor, and issues the
// cold-start load. Returns nil when memory admission fails.
func (c *Controller) createInstance(m model.Model, nodes []*cluster.Node, share float64, first *engine.Request) *engine.Instance {
	inst := c.takeInstance()
	for _, n := range nodes {
		inst.NodeIdxs = append(inst.NodeIdxs, n.Idx)
	}
	if inst.Cache == nil {
		inst.Cache = kvcache.NewCache(m, len(nodes))
	} else {
		inst.Cache.Reset(m, len(nodes))
	}
	inst.ID, inst.Model, inst.Class, inst.Share = c.nextInstID, m, nodes[0].Spec.Class, share
	inst.Profile = c.Registry.Get(nodes[0].Spec.Class, m, share*orOne(nodes[0].SpeedFactor))
	inst.State = engine.Loading
	inst.Role = wantRole(c.Cfg, engine.PrefillWork)
	inst.CreatedAt = c.Sim.Now()
	c.nextInstID++
	if c.Cfg.NEOAssist {
		inst.DecodePenalty = c.Cfg.NEODecodePenalty
	}

	// Per-node allocations.
	div := int64(len(nodes))
	weights := m.WeightBytes()/div + hwsim.ActivationReserve
	dynamicKV := c.Cfg.DynamicMemory && len(nodes) == 1
	var kvInit int64
	if dynamicKV {
		est := c.estimators[m.Name]
		states := c.kvStateScratch[:0]
		if first != nil {
			states = append(states, kvcache.ReqState{InputLen: first.W.InputLen})
		}
		kvInit = c.Cfg.Watermark.Recommend(est.RequireBytes(m, states, 1))
		c.kvStateScratch = states[:0]
	} else {
		memShare := int64(float64(nodes[0].Spec.MemBytes) * share)
		kvInit = memShare - weights
		if c.Cfg.NEOAssist {
			kvInit += c.Cfg.NEOExtraKVBytes
		}
		if kvInit <= 0 {
			return nil
		}
	}

	// Admission across all host nodes first (all-or-nothing). Offloaded
	// NEO KV lives in host DRAM, not node memory.
	kvCharge := kvInit
	if c.Cfg.NEOAssist {
		kvCharge = kvInit - c.Cfg.NEOExtraKVBytes
	}
	for _, n := range nodes {
		if !n.Mem.CanAdmit(weights + kvCharge) {
			return nil
		}
	}

	// Weights load; under dynamic memory the KV allocation is a separate
	// resize op so later admissions see a truthful ledger.
	loadTo := weights
	staticKV := int64(0)
	if !dynamicKV {
		loadTo += kvCharge
		staticKV = kvInit
	}
	loadDur := nodes[0].Spec.LoadTime(m)
	c.loadETA[inst.ID] = c.Sim.Now().Add(loadDur)
	remaining := len(nodes)
	onLoaded := func() {
		remaining--
		if remaining > 0 {
			return
		}
		c.finishLoad(inst, staticKV)
	}
	for _, n := range nodes {
		op := n.Mem.AcquireOp()
		op.Kind, op.Owner = memctl.LoadWeights, inst.WeightsOwner()
		op.From, op.To, op.Duration = 0, loadTo, loadDur
		op.OnComplete = onLoaded
		if !n.Mem.Demand(op) {
			panic("core: load demand rejected after CanAdmit")
		}
	}

	// Carve compute per the placement policy (shared executor under
	// elastic sharing, a dedicated partition otherwise).
	ex := c.Cfg.Placement.CarveExecutor(c.host, nodes, share)
	ex.AddInstance(inst)
	c.instExec[inst.ID] = ex
	for i, n := range nodes {
		if i > 0 {
			n.ReservedBy = inst.ID
		}
		c.Collector.NodeActive(n.Idx, n.Kind(), c.Sim.Now())
	}
	c.instances[m.Name] = append(c.instances[m.Name], inst)
	c.Collector.ColdStarts++
	c.emit(Event{Kind: telemetry.KindInstanceUp, Inst: inst})
	if dynamicKV && kvInit > 0 {
		c.issueResize(inst, kvInit)
	}
	return inst
}

func orOne(v float64) float64 {
	if v <= 0 {
		return 1
	}
	return v
}

// finishLoad activates a loaded instance. staticKV is nonzero for
// whole-allocation (static-memory) instances; dynamic instances receive
// their capacity from the creation resize op instead.
func (c *Controller) finishLoad(inst *engine.Instance, staticKV int64) {
	if inst.State != engine.Loading {
		return
	}
	delete(c.loadETA, inst.ID)
	inst.State = engine.Active
	if staticKV > 0 {
		inst.Cache.SetCapacity(staticKV)
		inst.KVTarget = staticKV
	}
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.Kick()
	}
	if inst.Idle() {
		c.scheduleKeepAlive(inst)
	}
	c.retryPending()
}

// scheduleKeepAlive hands an idle instance to the keep-alive policy (§V),
// which decides whether and when to arm the reclamation timer.
func (c *Controller) scheduleKeepAlive(inst *engine.Instance) {
	c.Cfg.KeepAlivePolicy.Arm(c.host, inst)
}

func (c *Controller) cancelKeepAlive(inst *engine.Instance) {
	if ev, ok := c.keepAlive[inst.ID]; ok {
		ev.Cancel()
		delete(c.keepAlive, inst.ID)
	}
}

// reclaim tears an idle instance down, releasing compute and memory.
func (c *Controller) reclaim(inst *engine.Instance) {
	if inst.State != engine.Active || !inst.Idle() {
		return
	}
	if inst.ResizeInFlight {
		// Let the in-flight resize land first; re-try shortly after.
		c.Sim.AfterFunc(0.2, c.fnReclaim, inst)
		return
	}
	c.removeInstance(inst, true)
	c.Collector.Reclaims++
}

// removeInstance detaches an instance and issues its unload operations.
// countLifetime records instance lifetime stats (skipped for PD helpers).
func (c *Controller) removeInstance(inst *engine.Instance, countLifetime bool) {
	inst.State = engine.Unloading
	c.emit(Event{Kind: telemetry.KindInstanceDown, Inst: inst})
	c.cancelKeepAlive(inst)
	if countLifetime {
		c.Collector.InstanceLifetime += c.Sim.Now().Sub(inst.CreatedAt)
	}
	// Detach compute.
	if ex := c.instExec[inst.ID]; ex != nil {
		ex.RemoveInstance(inst)
		c.Cfg.Placement.ReleaseExecutor(c.host, inst, ex)
		delete(c.instExec, inst.ID)
	}
	// Drop from the live set.
	list := c.instances[inst.Model.Name]
	for i, x := range list {
		if x == inst {
			c.instances[inst.Model.Name] = append(list[:i], list[i+1:]...)
			break
		}
	}
	// Release memory per node. Static instances unload their whole
	// allocation (weights + activation + resident KV) under the weights
	// owner, mirroring the combined load at creation. Dynamic-memory
	// instances allocated their KV under a separate ledger owner (creation
	// resize), so the teardown releases it under that same owner — the
	// per-allocation ledger stays conserved (bytes unloaded under an owner
	// match the bytes loaded under it), which the invariant suite checks.
	// Both releases ride the same unload window, so the node's byte
	// timeline is unchanged.
	div := int64(len(inst.NodeIdxs))
	weights := inst.Model.WeightBytes()/div + hwsim.ActivationReserve
	kv := inst.Cache.CapacityBytes()
	if c.Cfg.NEOAssist {
		kv -= c.Cfg.NEOExtraKVBytes
		if kv < 0 {
			kv = 0
		}
	}
	dynamicKV := !c.isStaticInstance(inst)
	unloadFrom := weights + kv
	if dynamicKV {
		unloadFrom = weights
	}
	// The per-node teardown is a batched ledger step: the KV release and the
	// weights unload stage into the node's step batch and apply in one
	// Commit, so the ledger (and its conservation observer) sees the
	// teardown as a single coherent burst rather than interleaved calls.
	for _, idx := range inst.NodeIdxs {
		node := c.Cluster.Nodes[idx]
		dur := node.Spec.UnloadTime(inst.Model)
		b := node.Mem.StepBatch()
		if dynamicKV && kv > 0 {
			b.Demand(memctl.ResizeKV, inst.KVOwner(), kv, 0, dur, nil)
		}
		b.Demand(memctl.UnloadWeights, inst.WeightsOwner(), unloadFrom, 0, dur, func() {
			if node.ReservedBy == inst.ID {
				node.ReservedBy = 0
			}
			if !node.Occupied() {
				c.Collector.NodeInactive(node.Idx, c.Sim.Now())
			}
			c.retryPending()
		})
		b.Commit()
	}
	inst.Cache.SetCapacity(0)
}

// ---- PD disaggregation (§IX-G) -----------------------------------------------

// startPDTransfer ships a prefilled request's KV to a decode instance.
func (c *Controller) startPDTransfer(req *engine.Request, from *engine.Instance) {
	kvBytes := int64(req.ContextTokens()) * from.Model.KVBytesPerToken()
	dur := c.specOf(from).KVTransferTime(kvBytes)
	if from.Idle() && from.State == engine.Active {
		c.scheduleKeepAlive(from)
	}
	c.Sim.AfterFunc(dur, c.fnPD, req)
}

func (c *Controller) finishPDTransfer(req *engine.Request) {
	if req.State != engine.Transferring {
		return
	}
	m := c.models[req.W.ModelName]
	// Join the largest decode instance that fits; else create one. A
	// decode instance still loading grants the request a cold-start grace
	// window (§IX-A) and is joined once up.
	for _, inst := range c.decodeCandidates(m) {
		if inst.State == engine.Loading {
			if eta, ok := c.loadETA[inst.ID]; ok && eta > c.Sim.Now() {
				req.Tracker.ExtendGrace(eta.Sub(c.Sim.Now()))
				c.Sim.AfterFunc(eta.Sub(c.Sim.Now())+0.02, c.fnPD, req)
				return
			}
			continue
		}
		if inst.State != engine.Active || inst.TotalLoad() >= c.Cfg.MaxBatch {
			continue
		}
		if lim := c.Cfg.FixedLimit; lim != nil && inst.TotalLoad() >= lim(inst.Model, inst.Class, inst.Share) {
			continue
		}
		// The arriving KV needs cache space; drive the §VII-B scale-up.
		if !c.ensureMemoryFor(req, inst) {
			continue
		}
		if inst.JoinDecode(req) {
			if ex := c.instExec[inst.ID]; ex != nil {
				ex.Kick()
			}
			return
		}
		// A scale-up is in flight; join once it lands.
		c.Sim.AfterFunc(0.25, c.fnPD, req)
		return
	}
	if inst := c.createDecodeInstance(m, req); inst != nil {
		return
	}
	// Nowhere to decode: the request stalls until capacity appears; its
	// tracker keeps ticking and will record the violation at completion.
	c.Sim.AfterFunc(0.5, c.fnPD, req)
}

func (c *Controller) decodeCandidates(m model.Model) []*engine.Instance {
	var out []*engine.Instance
	for _, inst := range c.instances[m.Name] {
		if inst.Role == engine.DecodeOnly {
			out = append(out, inst)
		}
	}
	consolidator.SortRoute(out)
	return out
}

// createDecodeInstance spawns a DecodeOnly instance for PD mode.
func (c *Controller) createDecodeInstance(m model.Model, req *engine.Request) *engine.Instance {
	for _, n := range c.Cluster.Nodes {
		if n.Kind() == hwsim.CPU {
			if !c.Cfg.UseCPU {
				continue
			}
			if c.Cfg.ShadowValidation {
				prof := c.Registry.Get(n.Spec.Class, m,
					c.Cfg.Placement.Share(m, n.Spec.Class)*orOne(n.SpeedFactor))
				if !prof.CanMeet(req.W.InputLen, req.Obj) {
					continue
				}
			}
		}
		share := c.Cfg.Placement.Share(m, n.Spec.Class)
		if !c.Cfg.Placement.HasSlot(c.host, n, share) {
			continue
		}
		if c.creationBytes(m, n, share, req) < 0 ||
			n.Mem.OptimisticFree() < c.creationBytes(m, n, share, req) {
			continue
		}
		// Decode instances share nodes too: the same §VI-C scale-out
		// validation applies or colocated decode rounds overrun the SLO.
		if !c.Cfg.Placement.AdmitScaleOut(c.host, n, m, share, req) {
			continue
		}
		inst := c.createInstance(m, []*cluster.Node{n}, share, req)
		if inst == nil {
			continue
		}
		inst.Role = engine.DecodeOnly
		// Re-enter the transfer path once the instance is up, in case a
		// request is already waiting on its KV handoff.
		if req.State == engine.Transferring {
			c.Sim.AfterFunc(n.Spec.LoadTime(m)+0.05, c.fnPD, req)
		}
		return inst
	}
	return nil
}

// ---- Metrics sampling ---------------------------------------------------------

func (c *Controller) scheduleSampler(period sim.Duration) {
	c.samplerPeriod = period
	c.samplerEv = c.Sim.AfterFunc(period, c.fnSampler, nil)
}

// samplerTick records one round of memory/KV utilization samples and
// re-arms itself. The chain stops re-arming past the trace end, and — so
// drained runs do not keep firing trailing empty ticks — as soon as the
// workload is provably finished (no arrivals left, every request terminal,
// no instances): from that point no tick could record a sample, so cutting
// the chain is observationally identical.
//
//slinfer:hotpath
func (c *Controller) samplerTick() {
	if c.Sim.Now() > c.traceEnd || c.workloadDrained() {
		c.samplerEv = sim.Event{}
		return
	}
	// Walk models in registration order: samples land in the collector in
	// iteration order, so ranging the map would shuffle them run-to-run.
	for _, name := range c.modelOrder {
		for _, inst := range c.instances[name] {
			if inst.State != engine.Active {
				continue
			}
			weights := inst.WeightBytesOnNode()
			used := float64(weights + inst.Cache.UsedBytes())
			alloc := float64(weights + inst.Cache.CapacityBytes())
			if alloc > 0 {
				c.Collector.SampleMemUtil(inst.Class.Kind(), used/alloc)
			}
			if inst.Cache.CapacityBytes() > 0 && !inst.Idle() {
				c.Collector.SampleKVUtil(inst.Cache.Utilization())
			}
		}
	}
	c.emitSample()
	c.samplerEv = c.Sim.AfterFunc(c.samplerPeriod, c.fnSampler, nil)
}

// stopSampler cancels the pending sampler tick. Run calls it after the
// drain deadline so the simulator's queue is not left holding a stray tick
// that would fire if the caller keeps stepping the simulation.
func (c *Controller) stopSampler() {
	c.samplerEv.Cancel()
	c.samplerEv = sim.Event{}
}

// workloadDrained reports whether the run can provably produce no further
// samples: the arrival cursor is exhausted, every submitted request reached
// a terminal state, and no instances exist (so nothing can be sampled and
// nothing can create new instances).
func (c *Controller) workloadDrained() bool {
	if c.externalArrivals {
		// Stream-driven runs (the fleet front door) may still schedule
		// arrivals from outside; only the trace-end check can stop the
		// sampler chain early.
		return false
	}
	if !c.arrivalsExhausted() || len(c.pending) > 0 {
		return false
	}
	if c.Collector.Completed+c.Collector.Dropped < c.Collector.Total {
		return false
	}
	for _, list := range c.instances {
		if len(list) > 0 {
			return false
		}
	}
	return true
}
