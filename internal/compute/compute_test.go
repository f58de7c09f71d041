package compute

import (
	"math/rand"
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/perfmodel"
	"slinfer/internal/sim"
	"slinfer/internal/slo"
	"slinfer/internal/workload"
)

var reg = perfmodel.NewRegistry(256)

func mkInst(id int, m model.Model, class hwsim.DeviceClass) *engine.Instance {
	inst := &engine.Instance{
		ID: id, Model: m, Class: class, Share: 1, NodeIdxs: []int{0},
		Profile: reg.Get(class, m, 1),
		Cache:   kvcache.NewCache(m, 1),
		State:   engine.Active,
	}
	inst.Cache.SetCapacity(60 * model.GiB)
	return inst
}

func mkReq(id int64, in, out int, at sim.Time) *engine.Request {
	return engine.NewRequest(workload.Request{ID: id, ModelName: "m", Arrival: at, InputLen: in, OutputLen: out})
}

func TestPickMinHeadroomAcrossInstances(t *testing.T) {
	a := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	b := mkInst(2, model.Llama2_7B, hwsim.XeonGen4)
	// a's request arrived earlier (tighter deadline).
	ra := mkReq(1, 512, 10, 0)
	rb := mkReq(2, 512, 10, 0.5)
	a.Admit(ra)
	b.Admit(rb)
	w, ok := PickMinHeadroom([]*engine.Instance{b, a}, 0.6)
	if !ok || w.Inst != a {
		t.Fatalf("want instance a (earliest deadline), got %+v", w)
	}
	// The paper's Figure 14 behaviour: after serving, the other becomes
	// most urgent.
	a.RemoveWaiting(ra)
	w, ok = PickMinHeadroom([]*engine.Instance{b, a}, 0.6)
	if !ok || w.Inst != b {
		t.Fatal("want instance b after a drained")
	}
	if _, ok := PickMinHeadroom(nil, 0); ok {
		t.Fatal("empty set must yield no work")
	}
}

func TestPickFIFOPrefersPrefillInOrder(t *testing.T) {
	a := mkInst(1, model.Llama2_7B, hwsim.A100)
	ra := mkReq(1, 512, 10, 0)
	rb := mkReq(2, 512, 10, 0)
	a.Admit(ra)
	a.CompletePrefill(ra, 0.1)
	a.Admit(rb)
	w, _ := PickFIFO([]*engine.Instance{a}, 0.2)
	if w.Kind != engine.PrefillWork || w.Req != rb {
		t.Fatalf("FIFO should prefill first, got %v", w.Kind)
	}
}

func newValidatorForTest() *Validator { return NewValidator() }

// ViewInstance builds a freshly allocated InstView from live instance
// state, with no blocking.
func ViewInstance(inst *engine.Instance) InstView {
	v, _ := viewInstanceInto(inst, nil)
	return v
}

func TestValidateAcceptsLightlyLoadedInstance(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	r := mkReq(1, 1024, 100, 10)
	v := newValidatorForTest()
	got := v.Validate(10, 10, []InstView{ViewInstance(inst)}, 0, ViewRequest(r), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("empty GPU instance should accept, got %v", got)
	}
}

func TestValidateCase1LongPrefillOnCPU(t *testing.T) {
	// A 34B prefill on CPU cannot meet TTFT: case 1.
	inst := mkInst(1, model.CodeLlama34B, hwsim.XeonGen4)
	r := mkReq(1, 2048, 100, 5)
	v := newValidatorForTest()
	got := v.Validate(5, 5, []InstView{ViewInstance(inst)}, 0, ViewRequest(r), slo.DefaultTPOT)
	if got != NewTTFT {
		t.Fatalf("want NewTTFT, got %v", got)
	}
}

// Earliest-deadline scheduling with banked headroom absorbs most prefill
// insertions: an existing request that decodes faster than its TPOT SLO
// accumulates slack, so inserting even a 4K CPU prefill is safe. The
// validator must recognize that and accept.
func TestValidateBankedHeadroomAbsorbsPrefill(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	old := mkReq(1, 1024, 400, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 1.9)
	newReq := mkReq(2, 4096, 100, 2.0)
	v := newValidatorForTest()
	got := v.Validate(2.0, 2.0, []InstView{ViewInstance(inst)}, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("banked headroom should absorb the prefill, got %v", got)
	}
}

func TestValidateCase2ExistingDelayed(t *testing.T) {
	// An instance whose KV resize blocks it until just before an existing
	// request's deadline: the projected decode lands late. The new request
	// itself has a loose TTFT, so the violation is on the existing request
	// (case 2).
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	old := mkReq(1, 1024, 400, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 1.9) // next deadline 2.25
	view := ViewInstance(inst)
	view.BlockedUntil = 2.22           // decode (~80ms) cannot finish by 2.25
	newReq := mkReq(2, 4096, 100, 2.0) // TTFT 8s: plenty of room
	v := newValidatorForTest()
	got := v.Validate(2.0, 2.0, []InstView{view}, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != ExistingDelayed {
		t.Fatalf("want ExistingDelayed, got %v", got)
	}
}

func TestValidateCase3AggregateDecode(t *testing.T) {
	// Many colocated CPU instances each under TPOT individually, but the
	// aggregate decode round exceeds 250 ms: case 3.
	var views []InstView
	for i := 0; i < 8; i++ {
		inst := mkInst(i, model.Llama2_7B, hwsim.XeonGen4)
		r := mkReq(int64(i), 512, 400, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 0.4)
		views = append(views, ViewInstance(inst))
	}
	newReq := mkReq(99, 512, 100, 0.5)
	v := newValidatorForTest()
	got := v.Validate(0.5, 0.5, views, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != AggregateDecode {
		t.Fatalf("want AggregateDecode, got %v", got)
	}
	// Two colocated 7B instances are fine (2 x ~70ms < 250ms).
	got = v.Validate(0.5, 0.5, views[:2], 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("2 instances should pass, got %v", got)
	}
}

func TestValidateBatchGrowthOnGPU(t *testing.T) {
	// A large GPU batch still accepts: decode stays fast.
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	for i := 0; i < 32; i++ {
		r := mkReq(int64(i), 1024, 200, 0)
		inst.Admit(r)
		inst.CompletePrefill(r, 1.0)
	}
	newReq := mkReq(99, 1024, 100, 1.5)
	v := newValidatorForTest()
	got := v.Validate(1.5, 1.5, []InstView{ViewInstance(inst)}, 0, ViewRequest(newReq), slo.DefaultTPOT)
	if got != OK {
		t.Fatalf("GPU 33-batch should accept, got %v", got)
	}
}

func TestValidateRespectsBusyExecutor(t *testing.T) {
	// The executor busy until far in the future pushes the new prefill
	// past its TTFT.
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	r := mkReq(1, 512, 100, 0)
	v := newValidatorForTest()
	// TTFT for 512 tokens is 1s; busy until t=2 makes it impossible.
	got := v.Validate(0, 2.0, []InstView{ViewInstance(inst)}, 0, ViewRequest(r), slo.DefaultTPOT)
	if got != NewTTFT {
		t.Fatalf("want NewTTFT from busy executor, got %v", got)
	}
}

func TestValidateBlockedInstanceDelaysPrefill(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	r := mkReq(1, 512, 100, 0)
	view := ViewInstance(inst)
	view.BlockedUntil = 2.0 // resize in flight until t=2 > 1s TTFT
	v := newValidatorForTest()
	if got := v.Validate(0, 0, []InstView{view}, 0, ViewRequest(r), slo.DefaultTPOT); got != NewTTFT {
		t.Fatalf("want NewTTFT from blocked instance, got %v", got)
	}
}

func TestValidateDoesNotMutateLiveState(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	old := mkReq(1, 512, 100, 0)
	inst.Admit(old)
	inst.CompletePrefill(old, 0.5)
	gen := old.Generated
	deadline := old.Tracker.NextDeadline()
	v := newValidatorForTest()
	views := []InstView{ViewInstance(inst)}
	v.Validate(0.6, 0.6, views, 0, ViewRequest(mkReq(2, 512, 10, 0.6)), slo.DefaultTPOT)
	if old.Generated != gen || old.Tracker.NextDeadline() != deadline {
		t.Fatal("validation mutated live request state")
	}
	if len(inst.Running) != 1 || len(views[0].Reqs) != 1 {
		t.Fatal("validation mutated views or batch")
	}
}

func TestValidatorCounters(t *testing.T) {
	v := newValidatorForTest()
	inst := mkInst(1, model.Llama2_7B, hwsim.A100)
	v.Validate(0, 0, []InstView{ViewInstance(inst)}, 0, ViewRequest(mkReq(1, 512, 5, 0)), slo.DefaultTPOT)
	v.Validate(0, 5, []InstView{ViewInstance(inst)}, 0, ViewRequest(mkReq(2, 512, 5, 0)), slo.DefaultTPOT)
	if v.Validations != 2 || v.Rejections != 1 {
		t.Fatalf("validations=%d rejections=%d, want 2/1", v.Validations, v.Rejections)
	}
}

// The overestimation margin is load-bearing: with a tight margin a request
// that barely fits is accepted; the 10% margin rejects it.
func TestOverestimationMargin(t *testing.T) {
	inst := mkInst(1, model.Llama2_7B, hwsim.XeonGen4)
	// Craft a request whose prefill estimate is within ~5% of its TTFT.
	// gen4 7B prefill(4096) ~ 2.75s; TTFT(4096) = 8s — too loose. Use the
	// busy executor to eat the slack instead: busy until TTFT - est*1.05.
	r := mkReq(1, 4096, 50, 0)
	est := inst.Profile.EstimatePrefill(4096)
	busyUntil := sim.Time(0).Add(r.Obj.TTFT - est - est*sim.Duration(0.05))
	loose := &Validator{Overestimate: 1.0, DecodeRounds: 2, MaxSteps: 600}
	tight := &Validator{Overestimate: 1.10, DecodeRounds: 2, MaxSteps: 600}
	if got := loose.Validate(0, busyUntil, []InstView{ViewInstance(inst)}, 0, ViewRequest(r), slo.DefaultTPOT); got != OK {
		t.Fatalf("loose validator should accept, got %v", got)
	}
	if got := tight.Validate(0, busyUntil, []InstView{ViewInstance(inst)}, 0, ViewRequest(r), slo.DefaultTPOT); got == OK {
		t.Fatal("10%% margin should reject the borderline request")
	}
}

// refValidator carries the pre-incremental validation kernel, kept
// verbatim as the differential oracle for validate: every virtual step
// rescans every request view of every instance, and the copy precedes the
// aggregate-decode check.
type refValidator struct {
	Overestimate float64
	DecodeRounds int
	MaxSteps     int

	projScratch   []InstView
	reqScratch    []ReqView
	roundsScratch []int
}

// validateReference runs the reference kernel with v's tuning on fresh
// scratch.
func validateReference(v *Validator, now, busyUntil sim.Time, insts []InstView, candIdx int, newReq ReqView, tpotSLO sim.Duration) Reason {
	ref := refValidator{Overestimate: v.Overestimate, DecodeRounds: v.DecodeRounds, MaxSteps: v.MaxSteps}
	return ref.validate(now, busyUntil, insts, candIdx, newReq, tpotSLO)
}

func (v *refValidator) validate(now, busyUntil sim.Time, insts []InstView, candIdx int, newReq ReqView, tpotSLO sim.Duration) Reason {
	if candIdx < 0 || candIdx >= len(insts) {
		return NewTTFT
	}
	over := sim.Duration(v.Overestimate)
	if over <= 0 {
		over = 1
	}

	// Deep-copy the projection so validation never touches live state. The
	// copies live in scratch buffers reused across calls; the request buffer
	// is sized up front so carving per-instance windows never reallocates.
	need := 1 // newReq
	for _, iv := range insts {
		need += len(iv.Reqs)
	}
	if cap(v.reqScratch) < need {
		v.reqScratch = make([]ReqView, 0, 2*need)
	}
	if cap(v.projScratch) < len(insts) {
		v.projScratch = make([]InstView, len(insts), 2*len(insts))
	}
	proj := v.projScratch[:len(insts)]
	buf := v.reqScratch[:0]
	for i, iv := range insts {
		start := len(buf)
		buf = append(buf, iv.Reqs...)
		if i == candIdx {
			buf = append(buf, newReq)
		}
		proj[i] = InstView{Profile: iv.Profile, BlockedUntil: iv.BlockedUntil,
			Reqs: buf[start:len(buf):len(buf)]}
	}
	v.projScratch, v.reqScratch = proj, buf[:0]

	// Case 3 (Figure 15): the aggregate decode round across all colocated
	// instances must fit within one TPOT budget, otherwise decode tokens
	// cannot be sustained even with perfect interleaving.
	var round sim.Duration
	for _, iv := range proj {
		batch, ctx := refDecodeBatch(iv)
		if batch == 0 {
			continue
		}
		round += sim.Duration(v.Overestimate) * iv.Profile.EstimateDecode(batch, ctx/batch)
	}
	if round > tpotSLO {
		return AggregateDecode
	}

	vclock := now
	if busyUntil > vclock {
		vclock = busyUntil
	}
	newPrefilled := false
	if cap(v.roundsScratch) < len(proj) {
		v.roundsScratch = make([]int, 2*len(proj))
	}
	roundsAfter := v.roundsScratch[:len(proj)]
	for i := range roundsAfter {
		roundsAfter[i] = 0
	}
	for step := 0; step < v.MaxSteps; step++ {
		// Termination: the new request prefilled and every instance
		// verified DecodeRounds decode iterations (or has no work).
		if newPrefilled {
			done := true
			for i := range proj {
				if len(proj[i].Reqs) > 0 && roundsAfter[i] < v.DecodeRounds {
					done = false
					break
				}
			}
			if done {
				return OK
			}
		}
		// Min-headroom instance selection, mirroring PickMinHeadroom.
		best, bestH := -1, sim.Duration(0)
		for i := range proj {
			if len(proj[i].Reqs) == 0 {
				continue
			}
			h := refMinHeadroom(proj[i], vclock)
			if best == -1 || h < bestH {
				best, bestH = i, h
			}
		}
		if best == -1 {
			return OK
		}
		iv := &proj[best]
		start := vclock
		if iv.BlockedUntil > start {
			start = iv.BlockedUntil
		}
		// Run the most urgent request's iteration.
		ri := refMostUrgentReq(*iv, vclock)
		r := &iv.Reqs[ri]
		if r.NeedsPrefill {
			end := start.Add(over * iv.Profile.EstimatePrefill(r.InputLen))
			if end > r.Deadline {
				if r.IsNew {
					return NewTTFT
				}
				return ExistingDelayed
			}
			r.NeedsPrefill = false
			r.Deadline = r.Deadline.Add(r.TPOT)
			r.Ctx++
			if r.IsNew {
				newPrefilled = true
			}
			vclock = end
			continue
		}
		// Decode the whole batch of this instance.
		batch, ctx := refDecodeBatch(*iv)
		end := start.Add(over * iv.Profile.EstimateDecode(batch, ctx/batch))
		for j := range iv.Reqs {
			q := &iv.Reqs[j]
			if q.NeedsPrefill {
				continue
			}
			if end > q.Deadline {
				if q.IsNew {
					return NewTTFT
				}
				return ExistingDelayed
			}
			q.Deadline = q.Deadline.Add(q.TPOT)
			q.Ctx++
		}
		if newPrefilled {
			roundsAfter[best]++
		}
		vclock = end
	}
	// Horizon exhausted without violation.
	return OK
}

func refDecodeBatch(iv InstView) (batch, ctx int) {
	for _, r := range iv.Reqs {
		if !r.NeedsPrefill {
			batch++
			ctx += r.Ctx
		}
	}
	return batch, ctx
}

func refMinHeadroom(iv InstView, now sim.Time) sim.Duration {
	best := sim.Duration(0)
	first := true
	for _, r := range iv.Reqs {
		h := r.Deadline.Sub(now)
		if first || h < best {
			best, first = h, false
		}
	}
	return best
}

func refMostUrgentReq(iv InstView, now sim.Time) int {
	best, idx := sim.Duration(0), 0
	for i, r := range iv.Reqs {
		h := r.Deadline.Sub(now)
		if i == 0 || h < best {
			best, idx = h, i
		}
	}
	return idx
}

// valCase is one shadow-validation input.
type valCase struct {
	overestimate           float64
	decodeRounds, maxSteps int
	now, busyUntil         sim.Time
	insts                  []InstView
	candIdx                int
	newReq                 ReqView
	tpot                   sim.Duration
}

var genProfiles = []*perfmodel.Profile{
	reg.Get(hwsim.A100, model.Llama2_7B, 1),
	reg.Get(hwsim.XeonGen4, model.Llama2_7B, 1),
	reg.Get(hwsim.A100, model.Llama2_13B, 0.5),
}

// genValidateCase draws one case, taking every choice from pick (a value
// in [0, n)). The draws cover ties on shared deadlines within and across
// instances, distinct deadlines that round to one headroom far behind a
// large clock, busy executors, blocked and empty instances, a short or
// zero step horizon, DecodeRounds 0 through 3, out-of-range candidates and
// a new request that skips prefill.
func genValidateCase(pick func(n int) int) valCase {
	clocks := [...]sim.Time{0, 2.5, 1e6, 1e9, 1 << 33}
	base := clocks[pick(len(clocks))] + sim.Time(pick(1000))*1e-3
	c := valCase{
		overestimate: [...]float64{1.1, 1.0, 1.5, 0}[pick(4)],
		decodeRounds: pick(4),
		maxSteps:     [...]int{600, 0, 1, 3, 20}[pick(5)],
		now:          base,
		busyUntil:    base,
		tpot:         [...]sim.Duration{0.25, 0.05, 1}[pick(3)],
	}
	if pick(3) == 0 {
		c.busyUntil = base + sim.Time(pick(2000))*1e-3
	}
	deadline := func() sim.Time {
		switch pick(4) {
		case 0:
			return base + sim.Time(pick(3))*0.125
		case 1:
			return sim.Time(pick(64)) * 1e-8
		default:
			return base + sim.Time(pick(4000))*1e-3
		}
	}
	req := func() ReqView {
		in := 1 + pick(4096)
		return ReqView{
			Deadline: deadline(), TPOT: [...]sim.Duration{0.25, 0.1, 0.05}[pick(3)],
			InputLen: in, Ctx: in + pick(512), NeedsPrefill: pick(3) == 0,
		}
	}
	k := pick(5)
	for i := 0; i < k; i++ {
		iv := InstView{Profile: genProfiles[pick(len(genProfiles))]}
		if pick(4) == 0 {
			iv.BlockedUntil = base + sim.Time(pick(3000))*1e-3
		}
		for j, n := 0, pick(9); j < n; j++ {
			iv.Reqs = append(iv.Reqs, req())
		}
		c.insts = append(c.insts, iv)
	}
	c.candIdx = pick(k+2) - 1 // -1 and k are out of range
	c.newReq = req()
	c.newReq.IsNew = true
	c.newReq.NeedsPrefill = pick(6) != 0
	return c
}

// byteSource turns fuzz input into choices, one byte per 256 values of
// range; exhausted input reads as zeros.
type byteSource struct{ data []byte }

func (s *byteSource) pick(n int) int {
	x := 0
	for span := 1; span < n; span <<= 8 {
		x <<= 8
		if len(s.data) > 0 {
			x |= int(s.data[0])
			s.data = s.data[1:]
		}
	}
	if n <= 1 {
		return 0
	}
	return x % n
}

func cloneViews(insts []InstView) []InstView {
	out := make([]InstView, len(insts))
	for i, iv := range insts {
		out[i] = iv
		out[i].Reqs = append([]ReqView(nil), iv.Reqs...)
	}
	return out
}

func sameViews(a, b []InstView) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Profile != b[i].Profile || a[i].BlockedUntil != b[i].BlockedUntil || len(a[i].Reqs) != len(b[i].Reqs) {
			return false
		}
		for j := range a[i].Reqs {
			if a[i].Reqs[j] != b[i].Reqs[j] {
				return false
			}
		}
	}
	return true
}

// checkAgainstReference validates c on v (whose scratch may hold any
// earlier case) and requires the reference kernel's reason, the matching
// counter movement, and untouched inputs. It returns the reason.
func checkAgainstReference(t *testing.T, v *Validator, c valCase) Reason {
	t.Helper()
	v.Overestimate, v.DecodeRounds, v.MaxSteps = c.overestimate, c.decodeRounds, c.maxSteps
	snapshot, newReq := cloneViews(c.insts), c.newReq
	vals, rejs := v.Validations, v.Rejections
	got := v.Validate(c.now, c.busyUntil, c.insts, c.candIdx, c.newReq, c.tpot)
	if !sameViews(c.insts, snapshot) || c.newReq != newReq {
		t.Fatalf("validation mutated its inputs: %+v", c)
	}
	want := validateReference(v, c.now, c.busyUntil, snapshot, c.candIdx, newReq, c.tpot)
	if got != want {
		t.Fatalf("validate = %v, reference = %v for %+v", got, want, c)
	}
	if got == OK && c.candIdx >= 0 && c.candIdx < len(c.insts) {
		// Every step completed, so the cached per-instance state must
		// agree with a rescan of the projected views.
		for i, p := range v.projScratch[:len(c.insts)] {
			if len(p.Reqs) == 0 {
				continue
			}
			batch, ctx := decodeBatch(p.Reqs)
			if minD := minDeadline(p.Reqs); p.batch != batch || p.ctx != ctx || p.minDeadline != minD {
				t.Fatalf("instance %d cached batch/ctx/minDeadline %d/%d/%v, rescan %d/%d/%v",
					i, p.batch, p.ctx, p.minDeadline, batch, ctx, minD)
			}
		}
	}
	if want != OK {
		rejs++
	}
	if v.Validations != vals+1 || v.Rejections != rejs {
		t.Fatalf("counters %d/%d, want %d/%d", v.Validations, v.Rejections, vals+1, rejs)
	}
	return got
}

func TestValidateMatchesReference(t *testing.T) {
	n := 100_000
	if testing.Short() {
		n = 10_000
	}
	rng := rand.New(rand.NewSource(1))
	v := NewValidator()
	var reasons [4]int
	for i := 0; i < n; i++ {
		reasons[checkAgainstReference(t, v, genValidateCase(rng.Intn))]++
	}
	// Every outcome must be well represented, or the draw has drifted away
	// from the paths it is meant to cover.
	for r, k := range reasons {
		if k < n/50 {
			t.Errorf("%v drawn %d times of %d", Reason(r), k, n)
		}
	}
}

func FuzzValidate(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		seed := make([]byte, 32+32*i)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Several cases share one validator, so scratch left by an earlier
		// shape feeds the next.
		v := NewValidator()
		src := &byteSource{data}
		for len(src.data) > 0 {
			checkAgainstReference(t, v, genValidateCase(src.pick))
		}
	})
}

// At a large clock, distinct deadlines far behind it subtract to the same
// headroom; the most urgent request is then the first in view order, not
// the one with the smaller deadline.
func TestValidateEqualHeadroomFromDistinctDeadlines(t *testing.T) {
	const vclock = sim.Time(1e9)
	old := ReqView{Deadline: 5e-8, TPOT: 0.25, InputLen: 512, Ctx: 512, NeedsPrefill: true}
	newReq := ReqView{Deadline: 1e-8, TPOT: 0.25, InputLen: 512, Ctx: 512, NeedsPrefill: true, IsNew: true}
	if old.Deadline == newReq.Deadline || old.Deadline.Sub(vclock) != newReq.Deadline.Sub(vclock) {
		t.Fatal("precondition: distinct deadlines with one headroom")
	}
	insts := []InstView{{Profile: genProfiles[0], Reqs: []ReqView{old}}}
	v := NewValidator()
	if got := v.Validate(vclock, vclock, insts, 0, newReq, slo.DefaultTPOT); got != ExistingDelayed {
		t.Fatalf("got %v, want ExistingDelayed (the earlier view runs first)", got)
	}
	if got := validateReference(v, vclock, vclock, insts, 0, newReq, slo.DefaultTPOT); got != ExistingDelayed {
		t.Fatalf("reference got %v, want ExistingDelayed", got)
	}
}

func TestViewInstancesSkipsAndLocatesCandidate(t *testing.T) {
	insts := make([]*engine.Instance, 3)
	for i := range insts {
		insts[i] = mkInst(i, model.Llama2_7B, hwsim.A100)
		for j := 0; j <= i; j++ {
			r := mkReq(int64(10*i+j), 256, 10, 0)
			insts[i].Admit(r)
			if j == 0 {
				insts[i].CompletePrefill(r, 0.1)
			}
		}
	}
	insts[2].ResizeInFlight, insts[2].ResizeDoneAt = true, 50
	v := NewValidator()
	views, candIdx := v.ViewInstances(insts, insts[1], insts[2])
	if len(views) != 2 || candIdx != 1 {
		t.Fatalf("got %d views, candIdx %d; want 2 views, candIdx 1", len(views), candIdx)
	}
	if cap(views) <= len(views) {
		t.Error("views must keep a spare slot for a fresh instance")
	}
	for i, inst := range []*engine.Instance{insts[0], insts[2]} {
		if want := ViewInstance(inst); !sameViews(views[i:i+1], []InstView{want}) {
			t.Errorf("view %d = %+v, want %+v (no blocking)", i, views[i], want)
		}
	}
	if _, idx := v.ViewInstances(insts, nil, insts[1]); idx != 1 {
		t.Errorf("candIdx %d with nothing skipped, want 1", idx)
	}
	if _, idx := v.ViewInstances(insts, insts[1], insts[1]); idx != -1 {
		t.Errorf("skipped candidate located at %d, want -1", idx)
	}
}

// Once its scratch has grown, the kernel and the view builder allocate
// nothing.
func TestValidateSteadyStateAllocatesNothing(t *testing.T) {
	insts := make([]*engine.Instance, 3)
	for i := range insts {
		insts[i] = mkInst(i, model.Llama2_7B, hwsim.A100)
		for j := 0; j < 7; j++ {
			r := mkReq(int64(10*i+j), 512, 100, 0)
			insts[i].Admit(r)
			insts[i].CompletePrefill(r, 0.2)
		}
	}
	newReq := ViewRequest(mkReq(99, 512, 100, 0.3))
	v := NewValidator()
	allocs := testing.AllocsPerRun(100, func() {
		views, candIdx := v.ViewInstances(insts, nil, insts[0])
		v.Validate(0.3, 0.3, views, candIdx, newReq, slo.DefaultTPOT)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per view+validate, want 0", allocs)
	}
}
