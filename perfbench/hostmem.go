package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync/atomic"
)

// runtimeCounts are cumulative host-process counters.
type runtimeCounts struct {
	allocBytes, mallocs, gcCycles uint64
}

func readRuntime() runtimeCounts {
	s := []rtmetrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	rtmetrics.Read(s)
	return runtimeCounts{s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()}
}

// heapWatch keeps the peak of the live heap while a run is in flight. The
// live heap is only known at the end of a GC cycle, so instead of polling
// (which would wake a goroutine on the run's CPUs) it reads it once per
// cycle, from the finalizer of a sentinel that each cycle collects.
type heapWatch struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

// sentinel holds a pointer so the allocator never batches it with other
// tiny objects, which would delay its finalizer.
type sentinel struct{ w *heapWatch }

func watchHeap() *heapWatch {
	w := &heapWatch{}
	w.read()
	w.arm()
	return w
}

func (w *heapWatch) arm() {
	runtime.SetFinalizer(&sentinel{w: w}, func(s *sentinel) {
		s.w.read()
		if !s.w.stopped.Load() {
			s.w.arm()
		}
	})
}

func (w *heapWatch) read() {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	v := s[0].Value.Uint64()
	for {
		old := w.peak.Load()
		if v <= old || w.peak.CompareAndSwap(old, v) {
			return
		}
	}
}

// stop ends the watch and returns the peak. The last sentinel's finalizer
// runs after some later cycle and does not re-arm.
func (w *heapWatch) stop() uint64 {
	w.stopped.Store(true)
	w.read()
	return w.peak.Load()
}
