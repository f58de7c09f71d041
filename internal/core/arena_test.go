package core

import (
	"runtime"
	"sync"
	"testing"

	"slinfer/internal/hwsim"
	"slinfer/internal/kvcache"
	"slinfer/internal/model"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
)

// freshCanonical runs a trace on a brand-new simulator and controller — the
// reference path arena reuse must be indistinguishable from.
func freshCanonical(models []model.Model, tr workload.Trace, cfg Config) string {
	s := sim.New()
	return New(s, hwsim.Testbed(2, 2), models, cfg).Run(tr).Canonical()
}

// TestArenaReuseByteIdentical pins the tentpole correctness contract: the
// same cell run twice through ONE reused arena is byte-identical to a fresh
// build, for every system preset — including presets with different policy
// compositions run back-to-back on the same arena, so state from one config
// leaking into the next would be caught, not just same-config residue.
func TestArenaReuseByteIdentical(t *testing.T) {
	models, tr := perfTrace(2)
	presets := []Config{SLINFER(), Sllm(), SllmC(), SllmCS(), NEOPlus(16)}

	a := AcquireArena()
	defer a.Release()
	// Warm the arena with every preset once, in order, then run the whole
	// roster again: the second pass reuses state shaped by a *different*
	// preceding config than the first pass did.
	var first []string
	for _, cfg := range presets {
		first = append(first, a.NewController(hwsim.Testbed(2, 2), models, cfg).Run(tr).Canonical())
	}
	for i, cfg := range presets {
		fresh := freshCanonical(models, tr, cfg)
		if first[i] != fresh {
			t.Errorf("%s: first arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				cfg.Name, first[i], fresh)
		}
		again := a.NewController(hwsim.Testbed(2, 2), models, cfg).Run(tr).Canonical()
		if again != fresh {
			t.Errorf("%s: reused arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				cfg.Name, again, fresh)
		}
	}
}

// TestArenaReuseAcrossTopologies: reuse must also be clean when consecutive
// runs change the cluster shape (the nightly grid interleaves 2c2g and 4c4g
// cells on the same workers), growing and shrinking the recycled cluster.
func TestArenaReuseAcrossTopologies(t *testing.T) {
	models, tr := perfTrace(2)
	a := AcquireArena()
	defer a.Release()
	for _, shape := range []struct{ cpu, gpu int }{{2, 2}, {4, 4}, {1, 1}, {2, 2}} {
		specs := hwsim.Testbed(shape.cpu, shape.gpu)
		got := a.NewController(specs, models, SLINFER()).Run(tr).Canonical()
		s := sim.New()
		want := New(s, hwsim.Testbed(shape.cpu, shape.gpu), models, SLINFER()).Run(tr).Canonical()
		if got != want {
			t.Fatalf("%dc%dg: arena run diverged from fresh build:\n--- arena ---\n%s--- fresh ---\n%s",
				shape.cpu, shape.gpu, got, want)
		}
	}
}

// TestArenaPoolNotSharedAcrossWorkers drives many goroutines through the
// acquire/run/release cycle concurrently; run under -race (CI does) it
// proves an arena is never visible to two workers at once — the pool handoff
// is the only synchronization an arena gets, so any sharing bug is a data
// race on the simulator's event slots. Every result must also match the
// fresh reference: a worker observing another worker's arena mid-run would
// diverge even if the race detector missed the overlap.
func TestArenaPoolNotSharedAcrossWorkers(t *testing.T) {
	models, tr := perfTrace(1)
	want := freshCanonical(models, tr, SLINFER())

	workers := 2 * runtime.GOMAXPROCS(0)
	const runsPerWorker = 4
	var wg sync.WaitGroup
	errs := make(chan string, workers*runsPerWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < runsPerWorker; r++ {
				a := AcquireArena()
				got := a.NewController(hwsim.Testbed(2, 2), models, SLINFER()).Run(tr).Canonical()
				a.Release()
				if got != want {
					errs <- got
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if got, ok := <-errs; ok {
		t.Fatalf("concurrent arena run diverged from fresh build:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestPrefixStoreWithoutHostTier pins that a negative host-tier size stays
// "no host tier" through Config's defaulting and the store's own, on a
// fresh controller and on a reused arena: the store reports a zero host
// tier, and blocks pushed out of the GPU tier are freed, never spilled.
func TestPrefixStoreWithoutHostTier(t *testing.T) {
	m := model.Llama2_7B
	perTok := m.KVBytesPerToken()
	cfg := SLINFER()
	cfg.PrefixCache = kvcache.TieredConfig{Enabled: true, GPUBytes: 64 * 16 * perTok, CPUBytes: -1}
	a := AcquireArena()
	defer a.Release()
	for i := 0; i < 3; i++ {
		c := New(sim.New(), hwsim.Testbed(1, 1), []model.Model{m}, cfg)
		if i > 0 {
			c = a.NewController(hwsim.Testbed(1, 1), []model.Model{m}, cfg) // the second one resets the first
		}
		ts := c.PrefixStore()
		if got := ts.Config().CPUBytes; got != 0 {
			t.Fatalf("controller %d: host tier %d bytes, want 0", i, got)
		}
		ts.Insert(m.Name, "sess0", 128*16, perTok)
		if led := ts.Ledger; led.Spills != 0 || led.CPUBytes != 0 || led.Evictions != 64 || !led.Conserved() {
			t.Fatalf("controller %d: GPU overflow spilled instead of freeing: %+v", i, led)
		}
	}
}
