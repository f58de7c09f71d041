package core

import (
	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
)

// hostView adapts the Controller to policy.Host: the narrow, stable
// surface the pluggable policies program against. Everything here is a
// thin forwarder; no decision logic lives in this file.
type hostView struct{ c *Controller }

func (h hostView) Now() sim.Time { return h.c.Sim.Now() }

func (h hostView) Nodes() []*cluster.Node { return h.c.Cluster.Nodes }

func (h hostView) NodesOfKind(k hwsim.Kind) []*cluster.Node { return h.c.Cluster.NodesOfKind(k) }

func (h hostView) SlotUsed(nodeIdx int) float64 { return h.c.slotUsed[nodeIdx] }

func (h hostView) AddSlot(nodeIdx int, delta float64) {
	h.c.slotUsed[nodeIdx] += delta
	if h.c.slotUsed[nodeIdx] < 0 {
		h.c.slotUsed[nodeIdx] = 0
	}
}

func (h hostView) RouteCandidates(m model.Model) []*engine.Instance {
	// Copy out of the controller's route scratch: policies route recursively
	// (preemption dry-runs rehoming candidates while iterating growers), so
	// they cannot share the scratch the internal admission path reuses.
	return append([]*engine.Instance(nil), h.c.routeCandidates(m, wantRole(h.c.Cfg, engine.PrefillWork))...)
}

func (h hostView) ExecutorOf(inst *engine.Instance) *cluster.Executor {
	return h.c.instExec[inst.ID]
}

func (h hostView) SharedExecutor(nodeIdx int) *cluster.Executor {
	c := h.c
	if ex := c.elasticExecs[nodeIdx]; ex != nil {
		return ex
	}
	// Wired on demand: a custom elastic placement installed on a Config
	// whose Sharing knob is not Elastic must still get a live executor
	// rather than a nil dereference.
	ex := c.Cluster.Nodes[nodeIdx].NewExecutor(1)
	c.wireExecutor(ex)
	c.elasticExecs[nodeIdx] = ex
	return ex
}

func (h hostView) WireExecutor(ex *cluster.Executor) { h.c.wireExecutor(ex) }

func (h hostView) Model(name string) model.Model { return h.c.models[name] }

func (h hostView) Profile(class hwsim.DeviceClass, m model.Model, share float64) *perfmodel.Profile {
	return h.c.Registry.Get(class, m, share)
}

func (h hostView) FixedLimit(m model.Model, class hwsim.DeviceClass, share float64) (int, bool) {
	if lim := h.c.Cfg.FixedLimit; lim != nil {
		return lim(m, class, share), true
	}
	return 0, false
}

func (h hostView) MaxBatch() int { return h.c.Cfg.MaxBatch }

func (h hostView) Validator() *compute.Validator { return h.c.Validator }

func (h hostView) ValidateOn(ex *cluster.Executor, cand *engine.Instance, rv compute.ReqView, tpot sim.Duration, candBlock sim.Duration) bool {
	return h.c.validateOn(ex, cand, nil, candBlock, rv, tpot)
}

func (h hostView) ValidateScaleOut(ex *cluster.Executor, prof *perfmodel.Profile, req *engine.Request, loadDur sim.Duration) bool {
	rv := compute.ViewRequest(req)
	rv.Deadline = rv.Deadline.Add(loadDur) // cold-start grace
	return h.c.validateOn(ex, nil, prof, loadDur, rv, req.Obj.TPOT)
}

func (h hostView) CreationBytes(m model.Model, n *cluster.Node, share float64, req *engine.Request) int64 {
	return h.c.creationBytes(m, n, share, req)
}

func (h hostView) Spawn(m model.Model, nodes []*cluster.Node, share float64, req *engine.Request) bool {
	inst := h.c.createInstance(m, nodes, share, req)
	if inst == nil {
		return false
	}
	h.c.place(req, inst)
	return true
}

func (h hostView) Admit(req *engine.Request, inst *engine.Instance) bool {
	return h.c.admit(req, inst)
}

func (h hostView) Migrate(req *engine.Request, from *engine.Instance) { h.c.migrate(req, from) }

func (h hostView) Reclaim(inst *engine.Instance) { h.c.reclaim(inst) }

func (h hostView) ArmReclaim(inst *engine.Instance, idle sim.Duration) {
	c := h.c
	c.cancelKeepAlive(inst)
	c.keepAlive[inst.ID] = c.Sim.AfterFunc(idle, c.fnKeepAlive, inst)
}

func (h hostView) RecordPreemption() { h.c.Collector.Preemptions++ }
