package policy

import (
	"slinfer/internal/cluster"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/model"
)

// NodeFits is the §V node-feasibility gate every single-node scale-out
// path shares: a CPU only when useCPU is set and, under sloGate, its
// profile can meet req's SLO (SLINFER excludes CPUs without matrix
// acceleration this way); never a device class the fixed-limit table
// disables (limit 0, the baselines); and only where p grants a slot and
// the creation memory fits the node's optimistic free bytes. share is the
// compute share p gives a fresh instance of m on n.
func NodeFits(h Host, p PlacementPolicy, n *cluster.Node, m model.Model, req *engine.Request, useCPU, sloGate bool) (share float64, ok bool) {
	class := n.Spec.Class
	share = p.Share(m, class)
	if n.Kind() == hwsim.CPU {
		if !useCPU {
			return share, false
		}
		if sloGate && !h.Profile(class, m, share).CanMeet(req.W.InputLen, req.Obj) {
			return share, false
		}
	}
	if lim, ok := h.FixedLimit(m, class, share); ok && lim <= 0 {
		return share, false
	}
	if !p.HasSlot(h, n, share) {
		return share, false
	}
	need := h.CreationBytes(m, n, share, req)
	return share, need >= 0 && n.Mem.OptimisticFree() >= need
}
