package core

import (
	"slinfer/internal/metrics"
	"slinfer/internal/sim"
)

// Externally driven runs: the fleet front door (internal/fleet) submits
// requests itself — scheduled on the shard's simulator in epoch batches —
// instead of handing the controller a whole trace. BeginStream/EndStream
// bracket such a run the way Run brackets a trace-driven one: the sampler
// chain, drain accounting, and report building are identical, so a shard
// driven through the stream API is observationally the same controller as a
// standalone Run over the shard's request slice.

// BeginStream prepares the controller for externally driven submission.
// traceEnd is the end of the arrival window (arrivals only come before it);
// expected size-hints the collector. Until EndStream, the sampler chain
// never concludes the workload has drained early: unlike a trace-driven
// run, more arrivals may still be scheduled from outside.
func (c *Controller) BeginStream(traceEnd sim.Time, expected int) {
	c.traceEnd = traceEnd
	c.externalArrivals = true
	c.Collector.Reserve(expected)
	c.scheduleSampler(c.Cfg.MemSamplePeriod)
}

// EndStream finalizes an externally driven run after the caller has
// advanced the simulator past its drain deadline, and builds the report for
// the given total duration (arrival window plus drain grace, mirroring
// Run).
func (c *Controller) EndStream(duration sim.Duration) metrics.Report {
	c.externalArrivals = false
	return c.finishRun(duration)
}

// SetSlowdown applies a straggler multiplier to every node in the
// controller's cluster: iterations started while it is set run factor
// times longer. factor <= 1 clears it. In-flight iterations keep their
// original duration — the factor takes effect at the next executor Kick,
// which keeps the change safe to apply at an epoch barrier.
func (c *Controller) SetSlowdown(factor float64) {
	if factor <= 1 {
		c.Cluster.SetSlow(0)
		return
	}
	c.Cluster.SetSlow(factor)
}

// InstanceCount returns the number of live instances across all models
// (cheap controller state for fleet snapshots).
func (c *Controller) InstanceCount() int {
	n := 0
	for _, list := range c.instances {
		n += len(list)
	}
	return n
}
