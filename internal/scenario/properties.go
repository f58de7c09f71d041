package scenario

import (
	"bytes"
	"fmt"
	"sort"

	"slinfer/internal/experiments"
	"slinfer/internal/policy"
	"slinfer/internal/sim"
	"slinfer/internal/workload"
	"slinfer/internal/workload/traceio"
)

// A Property is a metamorphic cross-cell relation: it runs additional
// simulations derived from a grid's cells and checks an equality or an
// ordering between them. Properties catch the bugs per-cell invariants
// cannot — a simulation can be internally consistent yet nondeterministic,
// or a transform can silently change semantics.
type Property struct {
	Name string
	// Doc states the relation being checked.
	Doc string
	// Check returns nil when the relation holds over the grid.
	Check func(g Grid) error
}

// Properties returns the metamorphic property set, checked over a grid by
// CheckProperties.
func Properties() []Property {
	return []Property{
		{
			Name:  "determinism",
			Doc:   "running a cell twice with the same seed yields byte-identical canonical reports",
			Check: checkDeterminism,
		},
		{
			Name:  "scale-rate-identity",
			Doc:   "ScaleRate(tr, 1.0, seed) is the identity on request content, RPM, and duration",
			Check: checkScaleRateIdentity,
		},
		{
			Name:  "replay-equals-live",
			Doc:   "replaying a saved trace is byte-identical to running the in-memory trace it was saved from",
			Check: checkReplayEqualsLive,
		},
		{
			Name:  "keepalive-monotone",
			Doc:   "under NoPreemption, retaining idle instances longer never increases cold starts",
			Check: checkKeepAliveMonotone,
		},
	}
}

// PropertyResult is one property's outcome over a grid.
type PropertyResult struct {
	Property Property
	Err      error
}

// CheckProperties evaluates every metamorphic property over the grid. The
// properties are independent, so they fan out through the experiments
// worker pool like grid cells do (their internal simulations run inline —
// no nested fan-out, so the pool cannot deadlock).
func CheckProperties(g Grid) []PropertyResult {
	props := Properties()
	return experiments.RunCells(len(props), func(i int) PropertyResult {
		return PropertyResult{Property: props[i], Err: props[i].Check(g)}
	})
}

// sampleCells picks up to n cells spread across the grid (first, last, and
// evenly between), so properties cross several axis values without running
// the whole matrix twice.
func sampleCells(g Grid, n int) []Cell {
	cells := g.Cells()
	if len(cells) <= n {
		return cells
	}
	out := make([]Cell, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, cells[i*(len(cells)-1)/(n-1)])
	}
	return out
}

func checkDeterminism(g Grid) error {
	for _, c := range sampleCells(g, 3) {
		a := RunCell(c)
		b := RunCell(c)
		if a.Err != nil || b.Err != nil {
			return fmt.Errorf("cell %s failed to run: %v / %v", c.Name(), a.Err, b.Err)
		}
		if ca, cb := a.Report.Canonical(), b.Report.Canonical(); ca != cb {
			return fmt.Errorf("cell %s is nondeterministic:\n--- first ---\n%s--- second ---\n%s",
				c.Name(), ca, cb)
		}
	}
	return nil
}

func checkScaleRateIdentity(g Grid) error {
	for _, w := range g.Workloads {
		for _, seed := range g.Seeds {
			_, tr, err := w.Trace(seed)
			if err != nil {
				return err
			}
			got := traceio.ScaleRate(tr, 1.0, seed)
			if err := sameRequests(tr, got); err != nil {
				return fmt.Errorf("workload %s seed %d: ScaleRate(1.0) not identity: %w", w.Name, seed, err)
			}
		}
	}
	return nil
}

// sameRequests compares two traces on everything the simulation consumes.
// ScaleRate renumbers IDs densely in arrival order, so IDs are excluded —
// they carry no simulation semantics (both traces still satisfy Validate's
// uniqueness).
func sameRequests(a, b workload.Trace) error {
	if a.Duration != b.Duration {
		return fmt.Errorf("duration %v != %v", a.Duration, b.Duration)
	}
	if len(a.Requests) != len(b.Requests) {
		return fmt.Errorf("%d requests != %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		x, y := a.Requests[i], b.Requests[i]
		if x.ModelName != y.ModelName || x.Arrival != y.Arrival ||
			x.InputLen != y.InputLen || x.OutputLen != y.OutputLen {
			return fmt.Errorf("request %d differs: %+v vs %+v", i, x, y)
		}
	}
	if len(a.RPM) != len(b.RPM) {
		return fmt.Errorf("RPM map size %d != %d", len(a.RPM), len(b.RPM))
	}
	// Sorted keys so a multi-entry mismatch reports the same offender every
	// run (map order would pick one at random).
	names := make([]string, 0, len(a.RPM))
	for name := range a.RPM {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if b.RPM[name] != a.RPM[name] {
			return fmt.Errorf("RPM[%s] %v != %v", name, a.RPM[name], b.RPM[name])
		}
	}
	return nil
}

// checkReplayEqualsLive saves a transformed trace through traceio, loads it
// back, and requires the loaded trace to drive a byte-identical run — the
// persistence layer must be semantically invisible.
func checkReplayEqualsLive(g Grid) error {
	for _, c := range sampleCells(g, 2) {
		if c.SLO.Objective != nil {
			c.SLO = DefaultSLO() // the on-disk format carries no SLO class
		}
		cfg, err := c.config()
		if err != nil {
			return err
		}
		models, tr, err := c.Workload.Trace(c.Seed)
		if err != nil {
			return err
		}
		tr = c.Transform.Apply(tr, c.Seed)

		var buf bytes.Buffer
		if err := traceio.Save(&buf, tr, traceio.Meta{Generator: c.Workload.Generator, Seed: c.Seed}); err != nil {
			return fmt.Errorf("cell %s: save: %w", c.Name(), err)
		}
		loaded, _, err := traceio.Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("cell %s: load: %w", c.Name(), err)
		}

		live, liveViol := runTrace(cfg, c.Topology, models, tr)
		replay, replayViol := runTrace(cfg, c.Topology, models, loaded)
		if err := violationsErr(liveViol); err != nil {
			return fmt.Errorf("cell %s live run: %w", c.Name(), err)
		}
		if err := violationsErr(replayViol); err != nil {
			return fmt.Errorf("cell %s replay run: %w", c.Name(), err)
		}
		if lc, rc := live.Canonical(), replay.Canonical(); lc != rc {
			return fmt.Errorf("cell %s: replay diverged from live:\n--- live ---\n%s--- replay ---\n%s",
				c.Name(), lc, rc)
		}
	}
	return nil
}

// checkKeepAliveMonotone: with preemption disabled, an idle instance
// retained longer can only absorb arrivals that would otherwise have
// cold-started — so growing the keep-alive window must never increase the
// cold-start count.
func checkKeepAliveMonotone(g Grid) error {
	w := g.Workloads[0]
	topo := g.Topologies[0]
	for _, seed := range g.Seeds {
		models, tr, err := w.Trace(seed)
		if err != nil {
			return err
		}
		var prevCold int64 = -1
		var prevKA float64
		for _, keepAlive := range []float64{1, 10} {
			cfg, err := Cell{System: "sllm+c", SLO: DefaultSLO()}.config()
			if err != nil {
				return err
			}
			cfg.KeepAlivePolicy = policy.FixedKeepAlive{Idle: sim.Duration(keepAlive) * sim.Second}
			rep, viol := runTrace(cfg, topo, models, tr)
			if err := violationsErr(viol); err != nil {
				return fmt.Errorf("keep-alive %vs run: %w", keepAlive, err)
			}
			if prevCold >= 0 && rep.ColdStarts > prevCold {
				return fmt.Errorf("workload %s seed %d: keep-alive %gs -> %d cold starts, but %gs -> %d (retention increased cold starts under NoPreemption)",
					w.Name, seed, prevKA, prevCold, keepAlive, rep.ColdStarts)
			}
			prevCold, prevKA = rep.ColdStarts, keepAlive
		}
	}
	return nil
}
