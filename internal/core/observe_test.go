package core

import (
	"testing"

	"slinfer/internal/engine"
	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/metrics"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
	"slinfer/internal/workload"
)

// ringWitness asserts the fan-out order on every observation: the event
// must already be the flight ring's last entry when the probe sees it.
type ringWitness struct {
	t     *testing.T
	c     *Controller
	rec   *telemetry.Recorder
	seen  int
	kinds map[telemetry.Kind]int
}

func (w *ringWitness) Observe(ev Event) {
	w.seen++
	w.kinds[ev.Kind]++
	last, ok := w.rec.Last()
	inst, req := int32(-1), int64(-1)
	if ev.Inst != nil {
		inst = int32(ev.Inst.ID)
	}
	if ev.Req != nil {
		req = ev.Req.W.ID
	}
	want := telemetry.Event{T: w.c.Sim.Now(), Kind: ev.Kind, Shard: last.Shard,
		Inst: inst, Req: req, A: ev.A, B: ev.B}
	if !ok || last != want {
		w.t.Fatalf("probe observed %+v before the recorder stored it (ring tail %+v, ok=%v)", want, last, ok)
	}
}

func (w *ringWitness) RunFinished(*Controller, metrics.Report) {}

// TestEmitRecordsBeforeObserve pins the one ordering contract of the
// observation stream: every event reaches the telemetry recorder before
// the probe, so a failing witness always finds the violating event in the
// flight ring. It also pins that the probe and the span buffer see the
// same stream, event for event.
func TestEmitRecordsBeforeObserve(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 6)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.GenerateChat(workload.ChatConfig{
		ModelNames: names, Duration: 3 * sim.Minute, Seed: 5,
	})
	perTok := model.Llama2_7B.KVBytesPerToken()
	cfg := SLINFER()
	// A tight GPU tier keeps the prefix store promoting, spilling and
	// evicting, so tier events ride the same stream.
	cfg.PrefixCache = kvcache.TieredConfig{
		Enabled: true, GPUBytes: 64 * 16 * perTok, CPUBytes: 128 * 16 * perTok,
	}
	trace := telemetry.New(telemetry.Options{Spans: true, FlightRing: 4})
	cfg.Telemetry = trace.Recorder(0)
	c := New(sim.New(), hwsim.Testbed(2, 2), models, cfg)
	w := &ringWitness{t: t, c: c, rec: cfg.Telemetry, kinds: map[telemetry.Kind]int{}}
	c.Cfg.Probe = w
	c.Run(tr)

	if got := len(cfg.Telemetry.Events()); w.seen != got {
		t.Fatalf("probe saw %d events, recorder stored %d", w.seen, got)
	}
	for _, k := range []telemetry.Kind{
		telemetry.KindAdmit, telemetry.KindPlace, telemetry.KindFirstToken,
		telemetry.KindDecodeIter, telemetry.KindComplete, telemetry.KindInstanceUp,
		telemetry.KindPrefixHit, telemetry.KindTierSpill,
	} {
		if w.kinds[k] == 0 {
			t.Errorf("no %v event reached the probe", k)
		}
	}
}

// ownerOps records memory operations admitted for a set of ledger owners.
type ownerOps struct {
	owners   map[string]bool
	admitted []string
}

func (o *ownerOps) OpAdmitted(_ *memctl.NodeMemory, op *memctl.Op) {
	if o.owners[op.Owner] {
		o.admitted = append(o.admitted, op.Kind.String()+" "+op.Owner)
	}
}
func (o *ownerOps) OpStarted(*memctl.NodeMemory, *memctl.Op)   {}
func (o *ownerOps) OpCompleted(*memctl.NodeMemory, *memctl.Op) {}
func (o *ownerOps) OpRejected(*memctl.NodeMemory, *memctl.Op)  {}

// TestPreemptedVictimMidPrefillIssuesNoOps tears an instance down the way
// SLO-preserving preemption does (migrate its requests, then reclaim) while
// its prefill is still executing. The stale iteration completion that lands
// afterwards must not be read as §VII-D underestimation: no memory
// operation may be admitted for the victim's ledger owners once its
// teardown is issued.
func TestPreemptedVictimMidPrefillIssuesNoOps(t *testing.T) {
	m := model.Llama2_7B
	cfg := SLINFER()
	cfg.UseCPU = false
	s := sim.New()
	c := New(s, hwsim.Testbed(0, 1), []model.Model{m}, cfg)
	var victim *engine.Instance
	var ops *ownerOps
	var watch func()
	watch = func() {
		for _, inst := range c.InstancesOf(m.Name) {
			ex := c.instExec[inst.ID]
			if inst.State != engine.Active || inst.ResizeInFlight || ex == nil ||
				!ex.Busy() || len(inst.WaitingPrefill) == 0 {
				continue
			}
			victim = inst
			for _, r := range append([]*engine.Request(nil), inst.WaitingPrefill...) {
				c.host.Migrate(r, inst)
			}
			c.host.Reclaim(inst)
			if inst.State != engine.Unloading {
				t.Fatalf("victim inst%d not torn down (state %v)", inst.ID, inst.State)
			}
			ops = &ownerOps{owners: map[string]bool{inst.KVOwner(): true, inst.WeightsOwner(): true}}
			c.Cluster.Nodes[inst.NodeIdxs[0]].Mem.Observer = ops
			return
		}
		if s.Now() < 20 {
			s.After(0.001, watch)
		}
	}
	s.After(0.001, watch)
	rep := c.Run(singleRequestTrace(m.Name, 4000, 50))

	if victim == nil {
		t.Fatal("never caught the instance mid-prefill")
	}
	if len(ops.admitted) > 0 {
		t.Fatalf("memory ops admitted for torn-down inst%d: %v", victim.ID, ops.admitted)
	}
	if rep.Completed != 1 {
		t.Fatalf("migrated request did not complete elsewhere: %d completed", rep.Completed)
	}
}
