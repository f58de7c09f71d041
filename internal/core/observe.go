package core

import (
	"slinfer/internal/engine"
	"slinfer/internal/metrics"
	"slinfer/internal/telemetry"
)

// Event is one controller lifecycle observation: the same kinds and
// payloads the telemetry recorder stores, with the request and instance as
// pointers so witnesses can walk live state. Req or Inst is nil when the
// kind is not scoped to one; A and B carry the kind-specific payloads
// documented on telemetry.Kind.
type Event struct {
	Kind telemetry.Kind
	Req  *engine.Request
	Inst *engine.Instance
	A, B int64
}

// Probe observes the controller's lifecycle stream. It is the hook the
// always-on invariant suite (internal/invariants) and the fleet's chaos
// bookkeeping attach through. Every call is synchronous from the
// single-threaded simulation at a point where the observed state is
// consistent, so witnesses can walk instances and caches without races.
// Implementations must not mutate controller state — a probe is a
// witness, not a policy.
type Probe interface {
	// Observe receives every event the controller emits, after the
	// telemetry recorder (when armed) has stored it.
	Observe(ev Event)
	// RunFinished fires at the end of Run or EndStream with the built
	// report, after the collector is finalized. End-of-run accounting
	// identities (request conservation, SLO bookkeeping) are checked here.
	RunFinished(c *Controller, rep metrics.Report)
}

// emit is the controller's single observation point: it records ev into
// Config.Telemetry first and then hands it to Config.Probe, so a probe that
// fails a check finds the violating event already in the flight ring. Each
// disabled sink costs one nil check; the controller never allocates on
// behalf of an absent one.
//
//slinfer:hotpath
func (c *Controller) emit(ev Event) {
	if t := c.Cfg.Telemetry; t != nil {
		inst, req := int32(-1), int64(-1)
		if ev.Inst != nil {
			inst = int32(ev.Inst.ID)
		}
		if ev.Req != nil {
			req = ev.Req.W.ID
		}
		t.Record(c.Sim.Now(), ev.Kind, inst, req, ev.A, ev.B)
	}
	if p := c.Cfg.Probe; p != nil {
		p.Observe(ev)
	}
}

// emitSample records one sim-time metric row on the sampler tick.
func (c *Controller) emitSample() {
	t := c.Cfg.Telemetry
	if t == nil || !t.SeriesEnabled() {
		return
	}
	queue := len(c.pending)
	outstanding := c.Collector.Total - c.Collector.Completed - c.Collector.Dropped
	active := outstanding - int64(queue)
	if active < 0 {
		active = 0
	}
	var kvGPU, kvCPU int64
	if c.prefix != nil {
		kvGPU, kvCPU = c.prefix.Ledger.GPUBytes, c.prefix.Ledger.CPUBytes
	}
	var schedNs, valNs int64
	if c.Cfg.MeasureOverhead {
		schedNs, valNs = c.Collector.ScheduleNs, c.Collector.ValidationNs
	}
	t.Sample(telemetry.Sample{
		T: c.Sim.Now(), Kind: telemetry.SampleTick,
		Queue: int32(queue), Active: int32(active),
		KVGPU: kvGPU, KVCPU: kvCPU,
		Outstanding: outstanding,
		ScheduleNs:  schedNs, ValidationNs: valNs,
	})
}

// tierEvents adapts the tiered prefix store's transition hooks onto emit.
// Wired whenever the store exists (New and reset): the store cannot know
// whether a probe will be attached after construction.
type tierEvents struct{ c *Controller }

func (t tierEvents) TierPromoted(bytes int64) {
	t.c.emit(Event{Kind: telemetry.KindTierPromote, A: bytes})
}
func (t tierEvents) TierSpilled(bytes int64) {
	t.c.emit(Event{Kind: telemetry.KindTierSpill, A: bytes})
}
func (t tierEvents) TierEvicted(bytes int64) {
	t.c.emit(Event{Kind: telemetry.KindTierEvict, A: bytes})
}

// FlightDump renders the telemetry flight-recorder ring (empty when
// telemetry is off or no ring is configured). The invariants suite wires
// this into its violation funnel so the first failed check dumps the
// events that led to it.
func (c *Controller) FlightDump() string {
	if t := c.Cfg.Telemetry; t != nil {
		return t.DumpTail()
	}
	return ""
}
