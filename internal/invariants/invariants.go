// Package invariants implements always-on runtime checkers for the
// simulation: a Suite attaches to a controller through the cheap observer
// hooks in sim, memctl, kvcache, and core, and verifies — on every event,
// not just at the end — that the run never violates the properties the
// paper's correctness rests on:
//
//   - Event-clock monotonicity: the virtual clock never moves backwards
//     (sim.Simulator.OnEvent).
//   - Memory-ledger conservation: per node, the optimistic and pessimistic
//     counters are reconstructed independently from the operation stream
//     (memctl.Observer) and must match the ledger at every transition;
//     operations on one allocation must chain physically (an op's From
//     equals the allocation's tracked size — bytes in == bytes out), at
//     most one op is in flight per allocation, physical usage never
//     exceeds the pessimistic bound, and the pessimistic bound never
//     exceeds capacity.
//   - KV-cache accounting: token releases never exceed live tokens
//     (kvcache.CacheObserver), and on every completion the cache's live
//     token count equals the sum of the running batch's context tokens.
//   - Tiered prefix-store conservation: on every store transition
//     (kvcache.TierObserver), allocated bytes equal GPU-resident plus
//     CPU-resident plus freed bytes, tiers stay within their configured
//     capacities, and at end of run the ledger's resident counters reconcile
//     against an independent walk of the block lists.
//   - Request lifecycle: every submitted request is seen exactly once and
//     terminates at most once (no request lost or duplicated); completed
//     requests generated exactly their trace-declared output tokens.
//   - SLO-attainment bookkeeping: the report's counters reconcile with the
//     independently counted lifecycle events and with each other
//     (total = completed + dropped + live, met <= completed, one TTFT
//     sample per completion, SLORate = met/total).
//
// Checkers are pure witnesses: they never mutate simulation state, so an
// attached Suite cannot perturb a run (determinism-critical — the golden
// and metamorphic tests rely on attached and unattached runs being
// byte-identical).
package invariants

import (
	"fmt"

	"slinfer/internal/core"
	"slinfer/internal/engine"
	"slinfer/internal/kvcache"
	"slinfer/internal/memctl"
	"slinfer/internal/metrics"
	"slinfer/internal/sim"
	"slinfer/internal/telemetry"
)

// Violation is one detected invariant breach.
type Violation struct {
	// Check names the violated invariant (e.g. "ledger-conservation").
	Check string
	// Detail describes the breach.
	Detail string
	// At is the virtual time of detection.
	At sim.Time
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s] at %v: %s", v.Check, v.At, v.Detail)
}

// maxViolations caps recorded violations so a systemic breach does not
// balloon memory; the count past the cap is still tracked.
const maxViolations = 100

// Suite is one run's invariant checker set. Construct with New (standalone)
// or Attach (wired into a controller); a Suite must not be shared across
// simulations. All checkers funnel violations into the Suite.
type Suite struct {
	sim *sim.Simulator

	violations []Violation
	dropped    int64 // violations past maxViolations

	// Event clock.
	lastEvent sim.Time

	// Request lifecycle. live holds submitted-but-not-terminal request IDs.
	live      map[int64]bool
	terminal  map[int64]bool
	submitted int64
	completed int64
	droppedRq int64

	// tier is the watched prefix store (nil unless WatchTier was called);
	// RunFinished reconciles its ledger against the block lists.
	tier *kvcache.TieredStore

	// dump is the flight-recorder hook (see SetDumper): invoked once, on
	// the first recorded violation, to capture the telemetry event log that
	// led there. dumpText holds its output. An interface rather than a
	// func() string so wiring a *Controller boxes a pointer instead of
	// allocating a method-value closure per Attach.
	dump     FlightDumper
	dumpText string
}

// FlightDumper is anything that can render a post-mortem event log —
// core.Controller implements it over the telemetry flight ring.
type FlightDumper interface {
	FlightDump() string
}

// New returns a Suite observing the simulator's event clock. Use WatchNode /
// WatchCache / core wiring (Attach) to add the remaining checkers.
func New(s *sim.Simulator) *Suite {
	su := &Suite{
		sim:      s,
		live:     map[int64]bool{},
		terminal: map[int64]bool{},
	}
	if s != nil {
		su.lastEvent = s.Now()
		s.OnEvent = su.onEvent
	}
	return su
}

// Attach wires a full Suite into a controller: the event clock, every
// node's memory ledger, the request-lifecycle probe, and — as instances are
// created — their KV caches. Attach must be called before Run; it replaces
// any previously configured Config.Probe.
func Attach(c *core.Controller) *Suite {
	su := New(c.Sim)
	for _, n := range c.Cluster.Nodes {
		su.WatchNode(n.Mem)
	}
	if ts := c.PrefixStore(); ts != nil {
		su.WatchTier(ts)
	}
	// Telemetry's flight recorder, when the controller runs one, dumps on
	// the first violation — strictly read-only, so the probe semantics are
	// unchanged whether or not telemetry is attached.
	su.SetDumper(c)
	c.Cfg.Probe = su
	return su
}

// SetDumper installs the flight-recorder hook: d.FlightDump runs once, at
// the first recorded violation, and its output is kept for FlightDump. A
// dumper returning "" (telemetry off, empty ring) is remembered as such;
// a nil dumper clears the hook.
func (s *Suite) SetDumper(d FlightDumper) { s.dump = d }

// FlightDump returns the flight-recorder capture taken at the first
// violation, or "" when no violation occurred or no dump hook was set.
func (s *Suite) FlightDump() string { return s.dumpText }

// report records one violation. The first one also triggers the flight
// recorder: the dump hook captures the telemetry event ring as it stood
// at the moment of detection, before the run moves on.
func (s *Suite) report(check, format string, args ...any) {
	if len(s.violations) >= maxViolations {
		s.dropped++
		return
	}
	var at sim.Time
	if s.sim != nil {
		at = s.sim.Now()
	}
	if len(s.violations) == 0 && s.dump != nil {
		s.dumpText = s.dump.FlightDump()
	}
	s.violations = append(s.violations, Violation{
		Check: check, Detail: fmt.Sprintf(format, args...), At: at,
	})
}

// Violations returns the recorded breaches in detection order.
func (s *Suite) Violations() []Violation {
	return append([]Violation(nil), s.violations...)
}

// Ok reports whether no invariant was violated.
func (s *Suite) Ok() bool { return len(s.violations) == 0 && s.dropped == 0 }

// LiveCount returns the number of submitted-but-not-terminal requests the
// lifecycle checker currently tracks. The fleet crash path cross-checks
// its own in-flight bookkeeping against this before re-driving.
func (s *Suite) LiveCount() int { return len(s.live) }

// AppendLiveIDs appends the live request IDs to dst in ascending order
// and returns the extended slice.
func (s *Suite) AppendLiveIDs(dst []int64) []int64 {
	start := len(dst)
	//slinfer:maporder collected tail is sorted below before anyone reads it
	for id := range s.live {
		dst = append(dst, id)
	}
	tail := dst[start:]
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j] < tail[j-1]; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

// Err returns nil when the run was clean, or an error summarizing the first
// violation and the total count.
func (s *Suite) Err() error {
	if s.Ok() {
		return nil
	}
	total := int64(len(s.violations)) + s.dropped
	return fmt.Errorf("invariants: %d violation(s), first: %s", total, s.violations[0])
}

// ---- Event clock -------------------------------------------------------------

func (s *Suite) onEvent(at sim.Time) {
	if at < s.lastEvent {
		s.report("clock-monotonic", "event at %v fired after clock reached %v", at, s.lastEvent)
	}
	s.lastEvent = at
}

// ---- Memory-ledger conservation ----------------------------------------------

// ledger shadows one NodeMemory: it reconstructs the optimistic and
// pessimistic counters purely from the observed operation stream and
// compares them to the ledger's own accounting after every transition.
type ledger struct {
	suite *Suite
	nm    *memctl.NodeMemory

	// sizes tracks each allocation's physical size (post-completion).
	sizes map[string]int64
	// admitted tracks the in-flight (admitted, not yet completed) op per
	// allocation.
	admitted map[string]*memctl.Op

	shadowOpt  int64
	shadowPess int64
	physical   int64
}

// WatchNode attaches a conservation checker to one memory ledger,
// replacing any previous observer. Attach before the node performs any
// operation: the checker reconstructs per-allocation sizes purely from the
// op stream, so ops it never saw would read as conservation breaches.
func (s *Suite) WatchNode(nm *memctl.NodeMemory) {
	nm.Observer = &ledger{
		suite:    s,
		nm:       nm,
		sizes:    map[string]int64{},
		admitted: map[string]*memctl.Op{},
	}
}

func (l *ledger) check(format string, args ...any) {
	l.suite.report("ledger-conservation", "%s: %s", l.nm.Name(), fmt.Sprintf(format, args...))
}

func (l *ledger) compare(context string) {
	if l.shadowOpt != l.nm.OptimisticUsed() {
		l.check("%s: optimistic diverged: ledger %d, reconstructed %d",
			context, l.nm.OptimisticUsed(), l.shadowOpt)
		l.shadowOpt = l.nm.OptimisticUsed() // resync so one corruption reports once
	}
	if l.shadowPess != l.nm.PessimisticUsed() {
		l.check("%s: pessimistic diverged: ledger %d, reconstructed %d",
			context, l.nm.PessimisticUsed(), l.shadowPess)
		l.shadowPess = l.nm.PessimisticUsed()
	}
	if p := l.nm.PessimisticUsed(); p > l.nm.Capacity() {
		l.check("%s: OOM risk: pessimistic %d exceeds capacity %d", context, p, l.nm.Capacity())
	}
	if l.physical > l.shadowPess {
		l.check("%s: physical %d exceeds pessimistic bound %d", context, l.physical, l.shadowPess)
	}
	if l.shadowOpt < 0 || l.shadowPess < 0 || l.physical < 0 {
		l.check("%s: negative accounting: opt=%d pess=%d phys=%d",
			context, l.shadowOpt, l.shadowPess, l.physical)
	}
}

func (l *ledger) OpAdmitted(_ *memctl.NodeMemory, op *memctl.Op) {
	if prev, busy := l.admitted[op.Owner]; busy {
		l.check("op %v %s admitted while %v->%d in flight on the same allocation",
			op.Kind, op.Owner, prev.Kind, prev.To)
	}
	if cur := l.sizes[op.Owner]; op.From != cur {
		l.check("op %v %s claims From=%d but allocation holds %d bytes (bytes leaked or conjured)",
			op.Kind, op.Owner, op.From, cur)
		// Resync so the mismatch reports once, not on every later op.
		l.sizes[op.Owner] = op.From
	}
	l.admitted[op.Owner] = op
	l.shadowOpt += op.To - op.From
	l.compare("admit")
}

func (l *ledger) OpStarted(_ *memctl.NodeMemory, op *memctl.Op) {
	if op.To > op.From {
		l.shadowPess += op.To - op.From
	}
	l.compare("start")
}

func (l *ledger) OpCompleted(_ *memctl.NodeMemory, op *memctl.Op) {
	if op.To < op.From {
		l.shadowPess += op.To - op.From
	}
	l.physical += op.To - op.From
	if l.sizes[op.Owner] != op.From {
		l.check("op %v %s completed with From=%d but allocation holds %d bytes",
			op.Kind, op.Owner, op.From, l.sizes[op.Owner])
	}
	if op.To == 0 {
		delete(l.sizes, op.Owner)
	} else {
		l.sizes[op.Owner] = op.To
	}
	delete(l.admitted, op.Owner)
	l.compare("complete")
}

func (l *ledger) OpRejected(_ *memctl.NodeMemory, op *memctl.Op) {
	if delta := op.To - op.From; delta <= 0 || l.shadowOpt+delta <= l.nm.Capacity() {
		l.check("op %v %s (%d->%d) rejected although the optimistic budget had room (%d/%d used)",
			op.Kind, op.Owner, op.From, op.To, l.shadowOpt, l.nm.Capacity())
	}
	l.compare("reject")
}

func (l *ledger) OpCanceled(_ *memctl.NodeMemory, op *memctl.Op) {
	l.shadowOpt -= op.To - op.From
	delete(l.admitted, op.Owner)
	l.compare("cancel")
}

// ---- KV-cache accounting ------------------------------------------------------

// cacheWatch ties a cache observer to its owning instance for reporting.
type cacheWatch struct {
	suite *Suite
	inst  *engine.Instance
}

// WatchCache attaches a KV accounting checker to an instance's cache,
// replacing any previous observer. Attach installs one per instance via
// its instance-up event.
func (s *Suite) WatchCache(inst *engine.Instance) {
	inst.Cache.Observer = &cacheWatch{suite: s, inst: inst}
}

func (w *cacheWatch) CacheOverRelease(c *kvcache.Cache, released int64) {
	w.suite.report("kv-accounting",
		"inst%d: released %d tokens but only %d live (double release)",
		w.inst.ID, released, c.UsedTokens())
}

// ---- Tiered prefix-store conservation ------------------------------------------

// tierWatch checks the tier ledger's conservation law on every transition.
type tierWatch struct {
	suite *Suite
}

// WatchTier attaches the conservation checker to a tiered prefix store,
// replacing any previous observer, and registers the store for end-of-run
// reconciliation. Attach wires it automatically when the controller has
// prefix sharing enabled.
func (s *Suite) WatchTier(ts *kvcache.TieredStore) {
	ts.Observer = &tierWatch{suite: s}
	s.tier = ts
}

func (w *tierWatch) TierChanged(ts *kvcache.TieredStore) {
	led := ts.Ledger
	if !led.Conserved() {
		w.suite.report("tier-conservation",
			"allocated %d != gpu %d + cpu %d + freed %d (bytes leaked or conjured)",
			led.AllocatedBytes, led.GPUBytes, led.CPUBytes, led.FreedBytes)
	}
	if led.GPUBytes < 0 || led.CPUBytes < 0 || led.FreedBytes < 0 || led.AllocatedBytes < 0 {
		w.suite.report("tier-conservation",
			"negative accounting: alloc=%d gpu=%d cpu=%d freed=%d",
			led.AllocatedBytes, led.GPUBytes, led.CPUBytes, led.FreedBytes)
	}
	cfg := ts.Config()
	if led.GPUBytes > cfg.GPUBytes {
		w.suite.report("tier-conservation",
			"GPU tier %d bytes exceeds capacity %d", led.GPUBytes, cfg.GPUBytes)
	}
	if led.CPUBytes > cfg.CPUBytes {
		w.suite.report("tier-conservation",
			"CPU tier %d bytes exceeds capacity %d", led.CPUBytes, cfg.CPUBytes)
	}
}

// checkTierResidency reconciles the ledger's resident counters against an
// independent walk of the store's block lists (end-of-run ground truth).
func (s *Suite) checkTierResidency() {
	if s.tier == nil {
		return
	}
	gpu, cpu := s.tier.TierUsage()
	led := s.tier.Ledger
	if gpu != led.GPUBytes || cpu != led.CPUBytes {
		s.report("tier-conservation",
			"ledger residency (gpu=%d cpu=%d) != block-list walk (gpu=%d cpu=%d) — tier leak",
			led.GPUBytes, led.CPUBytes, gpu, cpu)
	}
	if !led.Conserved() {
		s.report("tier-conservation",
			"end of run: allocated %d != gpu %d + cpu %d + freed %d",
			led.AllocatedBytes, led.GPUBytes, led.CPUBytes, led.FreedBytes)
	}
}

// ---- Request lifecycle + SLO bookkeeping --------------------------------------

// Observe implements core.Probe: the suite checks five lifecycle kinds
// (submission, completion, drop, instance creation and removal) and
// ignores the rest of the stream.
func (s *Suite) Observe(ev core.Event) {
	req, inst := ev.Req, ev.Inst
	switch ev.Kind {
	case telemetry.KindAdmit:
		id := req.W.ID
		if s.live[id] || s.terminal[id] {
			s.report("request-lifecycle", "request %d submitted twice", id)
			return
		}
		s.live[id] = true
		s.submitted++
	case telemetry.KindComplete:
		id := req.W.ID
		switch {
		case s.terminal[id]:
			s.report("request-lifecycle", "request %d reached a terminal state twice", id)
			return
		case !s.live[id]:
			s.report("request-lifecycle", "request %d completed without being submitted", id)
		}
		delete(s.live, id)
		s.terminal[id] = true
		s.completed++
		if req.State != engine.Done {
			s.report("request-lifecycle", "request %d completed in state %v, want done", id, req.State)
		}
		if req.Generated != req.W.OutputLen {
			s.report("request-lifecycle",
				"request %d generated %d tokens, trace declares %d (tokens lost or conjured)",
				id, req.Generated, req.W.OutputLen)
		}
		if _, have := req.Tracker.TTFT(); !have {
			s.report("slo-bookkeeping", "request %d completed without a first token", id)
		}
		if inst != nil {
			s.checkInstanceKV(inst)
		}
	case telemetry.KindDrop:
		id := req.W.ID
		switch {
		case s.terminal[id]:
			s.report("request-lifecycle", "request %d reached a terminal state twice", id)
			return
		case !s.live[id]:
			s.report("request-lifecycle", "request %d dropped without being submitted", id)
		}
		delete(s.live, id)
		s.terminal[id] = true
		s.droppedRq++
		if req.State != engine.Dropped {
			s.report("request-lifecycle", "request %d dropped in state %v", id, req.State)
		}
		if req.Tracker.Met() {
			s.report("slo-bookkeeping", "request %d dropped yet marked SLO-met", id)
		}
	case telemetry.KindInstanceUp:
		s.WatchCache(inst)
	case telemetry.KindInstanceDown:
		// Every removal path (keep-alive reclaim, preemption) drains or
		// migrates requests out before the unload is issued, so a removed
		// instance holding requests means they would be lost.
		if !inst.Idle() {
			s.report("request-lifecycle",
				"inst%d unloading with %d requests still attached",
				inst.ID, inst.TotalLoad())
		}
		if got := inst.Cache.UsedTokens(); got != 0 {
			s.report("kv-accounting",
				"inst%d unloading with %d live KV tokens", inst.ID, got)
		}
	}
}

// checkInstanceKV verifies the engine-level KV conservation identity at a
// quiescent point: the cache's live tokens equal the running batch's summed
// context.
func (s *Suite) checkInstanceKV(inst *engine.Instance) {
	var want int64
	for _, r := range inst.Running {
		want += int64(r.ContextTokens())
	}
	if got := inst.Cache.UsedTokens(); got != want {
		s.report("kv-accounting",
			"inst%d: cache holds %d tokens but running batch accounts %d",
			inst.ID, got, want)
	}
}

// RunFinished implements core.Probe: end-of-run conservation identities
// between the report, the collector, and the independently counted events.
// Requests still live at drain end are legal (the grace window bounds the
// run); the conservation identity accounts for them explicitly.
func (s *Suite) RunFinished(_ *core.Controller, rep metrics.Report) {
	if rep.Total != s.submitted {
		s.report("slo-bookkeeping", "report total %d != %d observed submissions", rep.Total, s.submitted)
	}
	if rep.Completed != s.completed {
		s.report("slo-bookkeeping", "report completed %d != %d observed completions", rep.Completed, s.completed)
	}
	if rep.Dropped != s.droppedRq {
		s.report("slo-bookkeeping", "report dropped %d != %d observed drops", rep.Dropped, s.droppedRq)
	}
	if live := int64(len(s.live)); s.completed+s.droppedRq+live != s.submitted {
		s.report("request-lifecycle",
			"requests not conserved: %d submitted, %d completed + %d dropped + %d live",
			s.submitted, s.completed, s.droppedRq, live)
	}
	if rep.Met > rep.Completed {
		s.report("slo-bookkeeping", "met %d exceeds completed %d", rep.Met, rep.Completed)
	}
	if rep.SLORate < 0 || rep.SLORate > 1 {
		s.report("slo-bookkeeping", "SLO rate %v outside [0, 1]", rep.SLORate)
	}
	if rep.Total > 0 {
		if want := float64(rep.Met) / float64(rep.Total); rep.SLORate != want {
			s.report("slo-bookkeeping", "SLO rate %v != met/total %v", rep.SLORate, want)
		}
	}
	if int64(len(rep.TTFTCDF)) != rep.Completed {
		s.report("slo-bookkeeping",
			"%d TTFT samples for %d completions (every completed request has a first token)",
			len(rep.TTFTCDF), rep.Completed)
	}
	s.checkTierResidency()
}
