package invariants

import (
	"strings"
	"testing"

	"slinfer/internal/core"
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

// runWithSuite drives one preset over a short fixed-seed trace with the full
// suite attached.
func runWithSuite(t *testing.T, cfg core.Config) *Suite {
	t.Helper()
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 2 * sim.Minute, Seed: 11,
		Dataset: workload.AzureConv,
	})
	s := sim.New()
	c := core.New(s, hwsim.Testbed(2, 2), models, cfg)
	suite := Attach(c)
	c.Run(tr)
	return suite
}

// TestCleanRunHasNoViolations is the positive baseline: every preset passes
// all always-on checkers on a real workload.
func TestCleanRunHasNoViolations(t *testing.T) {
	for _, cfg := range []core.Config{core.SLINFER(), core.Sllm(), core.SllmC(), core.SllmCS()} {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			suite := runWithSuite(t, cfg)
			if err := suite.Err(); err != nil {
				t.Fatalf("clean run reported violations: %v\nall: %v", err, suite.Violations())
			}
			if suite.submitted == 0 || suite.completed == 0 {
				t.Fatalf("suite observed no traffic (submitted=%d completed=%d) — probe not wired",
					suite.submitted, suite.completed)
			}
		})
	}
}

// TestNEOMagnitudesOnDynamicMemoryConserve runs SLINFER carrying NEO+'s
// two magnitudes. They apply to whole-allocation instances only, so every
// dynamic-memory teardown releases exactly what its creation charged: the
// run is clean and every node ledger drains to zero once all instances are
// reclaimed.
func TestNEOMagnitudesOnDynamicMemoryConserve(t *testing.T) {
	for _, extra := range []int64{1e8, 8e9} {
		cfg := core.SLINFER()
		cfg.NEOExtraKVBytes, cfg.NEODecodePenalty = extra, 0.05
		suite := runWithSuite(t, cfg)
		if err := suite.Err(); err != nil {
			t.Fatalf("NEO extra %d: %v\nall: %v", extra, err, suite.Violations())
		}
		for _, l := range suite.ledgers {
			if opt, pess := l.nm.OptimisticUsed(), l.nm.PessimisticUsed(); opt != 0 || pess != 0 {
				t.Errorf("NEO extra %d: %s still charges %d optimistic / %d pessimistic bytes after every instance was reclaimed",
					extra, l.nm.Name(), opt, pess)
			}
		}
	}
}

// TestReleaseCheckCatchesLeakedTeardown tears an instance down without
// releasing its weights and requires the end-of-run release check to flag
// the allocation; a release in flight at run end is legal.
func TestReleaseCheckCatchesLeakedTeardown(t *testing.T) {
	for _, release := range []bool{false, true} {
		s := sim.New()
		nm := memctl.New(s, "node0", 1000)
		suite := New(s)
		suite.WatchNode(nm)
		nm.Demand(&memctl.Op{Kind: memctl.LoadWeights, Owner: "inst1/weights", From: 0, To: 400})
		inst := &engine.Instance{ID: 1, Model: model.Llama2_7B, Cache: kvcache.NewCache(model.Llama2_7B, 1)}
		suite.Observe(core.Event{Kind: telemetry.KindInstanceDown, Inst: inst})
		if release {
			nm.Demand(&memctl.Op{Kind: memctl.UnloadWeights, Owner: "inst1/weights", From: 400, To: 0, Duration: sim.Second})
		}
		suite.RunFinished(nil, metrics.Report{})
		got := suite.Violations()
		if release && len(got) != 0 {
			t.Fatalf("release in flight flagged: %v", got)
		}
		if !release && (len(got) != 1 || !strings.Contains(got[0].Detail, "inst1/weights still holds 400 bytes")) {
			t.Fatalf("leaked teardown not caught: %v", got)
		}
	}
}

// TestAttachedRunIsByteIdentical pins that attaching the suite cannot
// perturb the simulation: checkers are witnesses, not participants.
func TestAttachedRunIsByteIdentical(t *testing.T) {
	models := model.Replicas(model.Llama2_7B, 8)
	names := make([]string, len(models))
	for i, m := range models {
		names[i] = m.Name
	}
	tr := workload.Generate(workload.TraceConfig{
		ModelNames: names, Duration: 2 * sim.Minute, Seed: 5,
		Dataset: workload.AzureConv,
	})
	run := func(attach bool) string {
		s := sim.New()
		c := core.New(s, hwsim.Testbed(2, 2), models, core.SLINFER())
		if attach {
			Attach(c)
		}
		return c.Run(tr).Canonical()
	}
	if plain, watched := run(false), run(true); plain != watched {
		t.Fatalf("attaching the invariant suite changed the run:\n--- plain ---\n%s--- watched ---\n%s",
			plain, watched)
	}
}

// TestConservationCatchesCorruptedLedger deliberately corrupts the memory
// ledger — an unload claiming fewer bytes than the allocation physically
// holds, the double-free/leak class of bug — and requires the conservation
// checker to flag it.
func TestConservationCatchesCorruptedLedger(t *testing.T) {
	s := sim.New()
	nm := memctl.New(s, "node0", 1000)
	suite := New(s)
	suite.WatchNode(nm)

	// Legitimate load of 400 bytes.
	if !nm.Demand(&memctl.Op{Kind: memctl.LoadWeights, Owner: "inst1/weights", From: 0, To: 400}) {
		t.Fatal("load rejected")
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("legitimate op flagged: %v", err)
	}

	// Corruption: unload claims the allocation holds only 300 bytes, so 100
	// bytes silently leak from the ledger.
	nm.Demand(&memctl.Op{Kind: memctl.UnloadWeights, Owner: "inst1/weights", From: 300, To: 0})

	if suite.Ok() {
		t.Fatal("conservation checker missed a corrupted ledger")
	}
	found := false
	for _, v := range suite.Violations() {
		if v.Check == "ledger-conservation" && strings.Contains(v.Detail, "From=300") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a ledger-conservation violation naming the bad From, got %v",
			suite.Violations())
	}
}

// TestConservationCatchesConcurrentOps flags two in-flight operations on
// one allocation (memctl's contract is at most one).
func TestConservationCatchesConcurrentOps(t *testing.T) {
	s := sim.New()
	nm := memctl.New(s, "node0", 1000)
	suite := New(s)
	suite.WatchNode(nm)

	nm.Demand(&memctl.Op{Kind: memctl.ResizeKV, Owner: "inst1/kv", From: 0, To: 200, Duration: sim.Second})
	nm.Demand(&memctl.Op{Kind: memctl.ResizeKV, Owner: "inst1/kv", From: 200, To: 300, Duration: sim.Second})

	found := false
	for _, v := range suite.Violations() {
		if v.Check == "ledger-conservation" && strings.Contains(v.Detail, "in flight on the same allocation") {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected a concurrent-op violation, got %v", suite.Violations())
	}
}

// TestKVOverReleaseCaught flags releasing more tokens than live.
func TestKVOverReleaseCaught(t *testing.T) {
	suite := New(sim.New())
	inst := &engine.Instance{ID: 7, Model: model.Llama2_7B, Cache: kvcache.NewCache(model.Llama2_7B, 1)}
	suite.WatchCache(inst)
	inst.Cache.SetCapacity(1 << 30)
	if !inst.Cache.AddTokens(100) {
		t.Fatal("tokens did not fit")
	}
	inst.Cache.ReleaseTokens(150)
	if suite.Ok() {
		t.Fatal("over-release not caught")
	}
	if v := suite.Violations()[0]; v.Check != "kv-accounting" {
		t.Fatalf("unexpected check %q", v.Check)
	}
}

// TestTierConservationCleanAndCorrupted drives the tiered prefix store
// through real traffic (clean: no violations), then corrupts its ledger —
// the over-release and tier-leak classes — and requires the conservation
// checker to fire on the next transition and at reconciliation.
func TestTierConservationCleanAndCorrupted(t *testing.T) {
	perTok := model.Llama2_7B.KVBytesPerToken()
	newStore := func() (*Suite, *kvcache.TieredStore) {
		suite := New(sim.New())
		ts := kvcache.NewTieredStore(kvcache.TieredConfig{
			Enabled: true, GPUBytes: 64 * 16 * perTok, CPUBytes: 128 * 16 * perTok,
		})
		suite.WatchTier(ts)
		return suite, ts
	}

	// Clean traffic: inserts, hits, spills, evictions — all conserved.
	suite, ts := newStore()
	for sess := 0; sess < 12; sess++ {
		key := "tpl0@512/sess" + string(rune('a'+sess))
		ts.Insert("m", key, 2048, perTok)
		ts.Lookup("m", key, 2048, perTok)
	}
	if err := suite.Err(); err != nil {
		t.Fatalf("clean tier traffic flagged: %v", err)
	}
	if ts.Ledger.Evictions == 0 || ts.Ledger.Spills == 0 {
		t.Fatalf("traffic did not exercise spill/evict paths: %+v", ts.Ledger)
	}

	// Over-release: FreedBytes inflated as if blocks were freed twice.
	suite, ts = newStore()
	ts.Insert("m", "tpl0@512/sessA", 1024, perTok)
	ts.Ledger.FreedBytes += 10 * 16 * perTok
	ts.Lookup("m", "tpl0@512/sessA", 1024, perTok)
	if suite.Ok() {
		t.Fatal("over-release corruption not caught")
	}
	if v := suite.Violations()[0]; v.Check != "tier-conservation" {
		t.Fatalf("unexpected check %q", v.Check)
	}

	// Tier leak: the ledger claims fewer GPU-resident bytes than the block
	// lists actually hold; the per-transition law breaks, and so does the
	// end-of-run walk reconciliation.
	suite, ts = newStore()
	ts.Insert("m", "tpl0@512/sessB", 1024, perTok)
	ts.Ledger.GPUBytes -= 16 * perTok
	ts.Lookup("m", "tpl0@512/sessB", 1024, perTok)
	if suite.Ok() {
		t.Fatal("tier leak not caught on transition")
	}
	suite, ts = newStore()
	ts.Insert("m", "tpl0@512/sessC", 1024, perTok)
	ts.Ledger.GPUBytes -= 16 * perTok
	ts.Ledger.AllocatedBytes -= 16 * perTok // keep the sum law intact
	suite.checkTierResidency()
	found := false
	for _, v := range suite.Violations() {
		if v.Check == "tier-conservation" && strings.Contains(v.Detail, "tier leak") {
			found = true
		}
	}
	if !found {
		t.Fatalf("walk reconciliation missed the leak, got %v", suite.Violations())
	}
}

// TestClockViolationCaught feeds the clock checker a regressing timestamp.
func TestClockViolationCaught(t *testing.T) {
	s := sim.New()
	suite := New(s)
	s.OnEvent(5) // direct feed: the simulator itself refuses to regress
	s.OnEvent(3)
	if suite.Ok() {
		t.Fatal("clock regression not caught")
	}
	if v := suite.Violations()[0]; v.Check != "clock-monotonic" {
		t.Fatalf("unexpected check %q", v.Check)
	}
}

// TestLifecycleDuplicationCaught flags double submission and double
// completion.
func TestLifecycleDuplicationCaught(t *testing.T) {
	suite := New(sim.New())
	req := engine.NewRequest(workload.Request{ID: 42, ModelName: "m", InputLen: 10, OutputLen: 1})
	submit := core.Event{Kind: telemetry.KindAdmit, Req: req}
	suite.Observe(submit)
	suite.Observe(submit)
	if suite.Ok() {
		t.Fatal("duplicate submission not caught")
	}

	suite2 := New(sim.New())
	req2 := engine.NewRequest(workload.Request{ID: 43, ModelName: "m", InputLen: 10, OutputLen: 1})
	suite2.Observe(core.Event{Kind: telemetry.KindAdmit, Req: req2})
	req2.State = engine.Done
	req2.Generated = 1
	req2.Tracker.RecordToken(0.1)
	complete := core.Event{Kind: telemetry.KindComplete, Req: req2}
	suite2.Observe(complete)
	suite2.Observe(complete)
	if suite2.Ok() {
		t.Fatal("duplicate completion not caught")
	}
}
