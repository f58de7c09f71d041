package policy

import (
	"testing"

	"slinfer/internal/cluster"
	"slinfer/internal/compute"
	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// fakeHost implements Host for the pure policy mechanics; methods the
// tested paths never touch panic so an unexpected call fails loudly.
type fakeHost struct {
	cl     *cluster.Cluster
	slots  map[int]float64
	wired  int
	armed  []sim.Duration
	shared *cluster.Executor
	// limits, when set, is the fixed-limit table by device kind; need is
	// what CreationBytes reports.
	limits map[hwsim.Kind]int
	need   int64
}

func newFakeHost() *fakeHost {
	return &fakeHost{
		cl:    cluster.New(sim.New(), hwsim.Testbed(1, 1)),
		slots: map[int]float64{},
	}
}

func (h *fakeHost) Now() sim.Time          { return 0 }
func (h *fakeHost) Nodes() []*cluster.Node { return h.cl.Nodes }
func (h *fakeHost) NodesOfKind(k hwsim.Kind) []*cluster.Node {
	return h.cl.NodesOfKind(k)
}
func (h *fakeHost) SlotUsed(idx int) float64 { return h.slots[idx] }
func (h *fakeHost) AddSlot(idx int, d float64) {
	h.slots[idx] += d
	if h.slots[idx] < 0 {
		h.slots[idx] = 0
	}
}
func (h *fakeHost) RouteCandidates(model.Model) []*engine.Instance { panic("unused") }
func (h *fakeHost) ExecutorOf(*engine.Instance) *cluster.Executor  { panic("unused") }
func (h *fakeHost) SharedExecutor(int) *cluster.Executor           { return h.shared }
func (h *fakeHost) WireExecutor(*cluster.Executor)                 { h.wired++ }
func (h *fakeHost) Model(string) model.Model                       { panic("unused") }
func (h *fakeHost) Profile(hwsim.DeviceClass, model.Model, float64) *perfmodel.Profile {
	panic("unused")
}
func (h *fakeHost) FixedLimit(_ model.Model, class hwsim.DeviceClass, _ float64) (int, bool) {
	if h.limits == nil {
		return 0, false
	}
	return h.limits[class.Kind()], true
}
func (h *fakeHost) MaxBatch() int                 { return 256 }
func (h *fakeHost) Validator() *compute.Validator { panic("unused") }
func (h *fakeHost) ValidateOn(*cluster.Executor, *engine.Instance, compute.ReqView, sim.Duration, sim.Duration) bool {
	panic("unused")
}
func (h *fakeHost) ValidateScaleOut(*cluster.Executor, *perfmodel.Profile, *engine.Request, sim.Duration) bool {
	panic("unused")
}
func (h *fakeHost) CreationBytes(model.Model, *cluster.Node, float64, *engine.Request) int64 {
	return h.need
}
func (h *fakeHost) Spawn(model.Model, []*cluster.Node, float64, *engine.Request) bool {
	panic("unused")
}
func (h *fakeHost) Admit(*engine.Request, *engine.Instance) bool { panic("unused") }
func (h *fakeHost) Migrate(*engine.Request, *engine.Instance)    { panic("unused") }
func (h *fakeHost) Reclaim(*engine.Instance)                     { panic("unused") }
func (h *fakeHost) ArmReclaim(_ *engine.Instance, d sim.Duration) {
	h.armed = append(h.armed, d)
}
func (h *fakeHost) RecordPreemption() { panic("unused") }

func TestBinPackShare(t *testing.T) {
	p := &BinPack{Mode: Static, StaticShare: 0.5}
	if got := p.Share(model.Llama2_7B, hwsim.A100); got != 0.5 {
		t.Errorf("static GPU share = %v, want 0.5", got)
	}
	// §IX-A exception: 13B on CPU keeps the whole node even under static
	// partitioning.
	if got := p.Share(model.Llama2_13B, hwsim.XeonGen4); got != 1 {
		t.Errorf("static 13B CPU share = %v, want 1", got)
	}
	elastic := &BinPack{Mode: Elastic}
	if got := elastic.Share(model.Llama2_13B, hwsim.XeonGen4); got != 1 {
		t.Errorf("elastic share = %v, want 1", got)
	}
}

func TestBinPackHasSlot(t *testing.T) {
	h := newFakeHost()
	n := h.cl.Nodes[0]
	static := &BinPack{Mode: Static, StaticShare: 0.5}
	if !static.HasSlot(h, n, 0.5) {
		t.Error("empty node must have a half slot")
	}
	h.slots[n.Idx] = 0.75
	if static.HasSlot(h, n, 0.5) {
		t.Error("0.75 used + 0.5 share must not fit")
	}
	elastic := &BinPack{Mode: Elastic}
	if !elastic.HasSlot(h, n, 1) {
		t.Error("elastic sharing always has a slot (validation gates instead)")
	}
}

func TestNodeFitsGates(t *testing.T) {
	h := newFakeHost()
	cpu, gpu := h.cl.NodesOfKind(hwsim.CPU)[0], h.cl.NodesOfKind(hwsim.GPU)[0]
	m := model.Llama2_7B
	req := &engine.Request{}
	p := &BinPack{Mode: Exclusive}
	h.need = 1 << 30
	fits := func(n *cluster.Node, useCPU bool) bool {
		_, ok := NodeFits(h, p, n, m, req, useCPU, false)
		return ok
	}
	if !fits(cpu, true) || !fits(gpu, true) {
		t.Fatal("empty nodes with room must fit")
	}
	if fits(cpu, false) {
		t.Error("CPU nodes are excluded unless CPU serving is enabled")
	}
	// A fixed limit of 0 disables the class; a positive one does not.
	h.limits = map[hwsim.Kind]int{hwsim.CPU: 0, hwsim.GPU: 4}
	if fits(cpu, true) || !fits(gpu, true) {
		t.Error("fixed limit 0 must disable CPU only")
	}
	h.limits = nil
	h.slots[gpu.Idx] = 1
	if fits(gpu, true) {
		t.Error("a node without a free slot must not fit")
	}
	h.slots[gpu.Idx] = 0
	for _, need := range []int64{-1, gpu.Mem.OptimisticFree() + 1} {
		h.need = need
		if fits(gpu, true) {
			t.Errorf("creation bytes %d must not fit", need)
		}
	}
}

func TestBinPackCarveAndRelease(t *testing.T) {
	h := newFakeHost()
	n := h.cl.Nodes[0]
	p := &BinPack{Mode: Static, StaticShare: 0.5}
	ex := p.CarveExecutor(h, []*cluster.Node{n}, 0.5)
	if ex == nil || ex.Node != n {
		t.Fatal("carved executor not bound to its node")
	}
	if h.wired != 1 {
		t.Errorf("wired = %d, want 1 (dedicated executors must be wired)", h.wired)
	}
	if h.slots[n.Idx] != 0.5 {
		t.Errorf("slot charge = %v, want 0.5", h.slots[n.Idx])
	}
	inst := &engine.Instance{NodeIdxs: []int{n.Idx}, Share: 0.5}
	p.ReleaseExecutor(h, inst, ex)
	if h.slots[n.Idx] != 0 {
		t.Errorf("slot after release = %v, want 0", h.slots[n.Idx])
	}
	if len(n.Executors) != 0 {
		t.Error("dedicated executor must detach from its node on release")
	}
}

func TestBinPackElasticUsesSharedExecutor(t *testing.T) {
	h := newFakeHost()
	n := h.cl.Nodes[0]
	h.shared = n.NewExecutor(1)
	p := &BinPack{Mode: Elastic}
	if got := p.CarveExecutor(h, []*cluster.Node{n}, 1); got != h.shared {
		t.Fatal("elastic mode must reuse the node's shared executor")
	}
	if h.wired != 0 {
		t.Error("shared executors are wired at construction, not per instance")
	}
	inst := &engine.Instance{NodeIdxs: []int{n.Idx}, Share: 1}
	p.ReleaseExecutor(h, inst, h.shared)
	if len(n.Executors) != 1 {
		t.Error("shared executor must survive instance teardown")
	}
}

func TestKeepAlivePolicies(t *testing.T) {
	h := newFakeHost()
	inst := &engine.Instance{}
	FixedKeepAlive{Idle: 2.5}.Arm(h, inst)
	if len(h.armed) != 1 || h.armed[0] != 2.5 {
		t.Errorf("armed = %v, want [2.5]", h.armed)
	}
	Pin{}.Arm(h, inst)
	if len(h.armed) != 1 {
		t.Error("Pin must never arm a reclamation timer")
	}
}

func TestNoPreemption(t *testing.T) {
	if (NoPreemption{}).TryPreempt(nil, nil, model.Model{}) {
		t.Error("NoPreemption must always fail")
	}
}

func TestSharingModeString(t *testing.T) {
	for m, want := range map[SharingMode]string{
		Exclusive: "exclusive", Static: "static", Elastic: "elastic",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %s, want %s", m, m.String(), want)
		}
	}
}

// preemptHost drives SLOPreserving.TryPreempt over one executor: the
// grower is the only route candidate, and the actions are recorded.
type preemptHost struct {
	*fakeHost
	now       sim.Time
	grower    *engine.Instance
	ex        *cluster.Executor
	val       *compute.Validator
	reclaimed []*engine.Instance
	admitted  []*engine.Instance
	preempts  int
}

func (h *preemptHost) Now() sim.Time { return h.now }
func (h *preemptHost) RouteCandidates(model.Model) []*engine.Instance {
	return []*engine.Instance{h.grower}
}
func (h *preemptHost) ExecutorOf(*engine.Instance) *cluster.Executor { return h.ex }
func (h *preemptHost) Validator() *compute.Validator                 { return h.val }
func (h *preemptHost) RecordPreemption()                             { h.preempts++ }
func (h *preemptHost) Reclaim(inst *engine.Instance)                 { h.reclaimed = append(h.reclaimed, inst) }
func (h *preemptHost) Admit(_ *engine.Request, inst *engine.Instance) bool {
	h.admitted = append(h.admitted, inst)
	return true
}

func testInstance(reg *perfmodel.Registry, id int, m model.Model, state engine.InstState) *engine.Instance {
	inst := &engine.Instance{
		ID: id, Model: m, Class: hwsim.A100, Share: 1, NodeIdxs: []int{1},
		Profile: reg.Get(hwsim.A100, m, 1), Cache: kvcache.NewCache(m, 1), State: state,
	}
	inst.Cache.SetCapacity(60 * model.GiB)
	return inst
}

func testRequest(id int64, m model.Model, at sim.Time) *engine.Request {
	return engine.NewRequest(workload.Request{ID: id, ModelName: m.Name, Arrival: at, InputLen: 512, OutputLen: 50})
}

// The preemption pre-check validates the grower's executor minus the
// victim with no resize or cold-start blocking: a grower whose KV resize
// lands long after the new request's TTFT, next to a neighbour still
// loading, still passes it, although either blocking would reject.
func TestPreemptionPreCheckIgnoresBlocking(t *testing.T) {
	reg := perfmodel.NewRegistry(256)
	grower := testInstance(reg, 1, model.Llama2_7B, engine.Active)
	for i := int64(0); i < 2; i++ {
		r := testRequest(i, model.Llama2_7B, 0.5)
		grower.Admit(r)
		grower.CompletePrefill(r, 0.8)
	}
	grower.ResizeInFlight, grower.ResizeDoneAt = true, 100
	victim := testInstance(reg, 2, model.Llama2_13B, engine.Active)
	loading := testInstance(reg, 3, model.CodeLlama34B, engine.Loading)
	loading.Admit(testRequest(10, model.CodeLlama34B, 1))

	h := &preemptHost{fakeHost: newFakeHost(), now: 1, grower: grower, val: compute.NewValidator()}
	h.ex = h.cl.Nodes[1].NewExecutor(1)
	for _, inst := range []*engine.Instance{grower, victim, loading} {
		h.ex.AddInstance(inst)
	}
	req := testRequest(20, model.Llama2_7B, 1)
	if !(SLOPreserving{}).TryPreempt(h, req, model.Llama2_7B) {
		t.Fatal("preemption should pass its pre-check and execute")
	}
	if h.preempts != 1 || len(h.reclaimed) != 1 || h.reclaimed[0] != victim ||
		len(h.admitted) != 1 || h.admitted[0] != grower {
		t.Fatalf("preempts=%d reclaimed=%v admitted=%v", h.preempts, h.reclaimed, h.admitted)
	}
	if h.val.Validations != 1 || h.val.Rejections != 0 {
		t.Fatalf("validations/rejections = %d/%d, want one passing pre-check", h.val.Validations, h.val.Rejections)
	}

	// Either blocking would flip the decision.
	for _, blocked := range []*engine.Instance{grower, loading} {
		views, candIdx := h.val.ViewInstances(h.ex.Instances, victim, grower)
		for i, inst := range []*engine.Instance{grower, loading} {
			if inst == blocked {
				views[i].BlockedUntil = 100
			}
		}
		if got := h.val.Validate(h.now, h.now, views, candIdx, compute.ViewRequest(req), req.Obj.TPOT); got == compute.OK {
			t.Errorf("blocking instance %d should reject the pre-check", blocked.ID)
		}
	}
}
