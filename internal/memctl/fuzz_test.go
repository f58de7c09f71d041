package memctl

import (
	"fmt"
	"testing"

	"slinfer/internal/sim"
)

// fuzzCapacity is the node size FuzzLedger drives; targets range over
// [0, fuzzCapacity] so single scale-ups can be refused outright.
const fuzzCapacity = 1000

// shadowAlloc is one allocation as the op stream describes it: its physical
// size, and the op in flight on it (admitted, not yet completed), if any.
type shadowAlloc struct {
	size     int64
	inflight bool
	started  bool
	from, to int64
}

// shadowLedger rebuilds the optimistic and pessimistic counters from the
// observed op stream alone: optimistic charges every allocation at its
// admitted target, pessimistic at its physical size, or at the peak of
// (From, To) while its op executes.
type shadowLedger struct {
	allocs                       map[string]*shadowAlloc
	admitted, started, completed int64
	rejected                     int64
}

func (s *shadowLedger) alloc(owner string) *shadowAlloc {
	a := s.allocs[owner]
	if a == nil {
		a = &shadowAlloc{}
		s.allocs[owner] = a
	}
	return a
}

func (s *shadowLedger) OpAdmitted(_ *NodeMemory, op *Op) {
	a := s.alloc(op.Owner)
	a.inflight, a.started, a.from, a.to = true, false, op.From, op.To
	s.admitted++
}

func (s *shadowLedger) OpStarted(_ *NodeMemory, op *Op) {
	s.alloc(op.Owner).started = true
	s.started++
}

func (s *shadowLedger) OpCompleted(_ *NodeMemory, op *Op) {
	a := s.alloc(op.Owner)
	a.size, a.inflight, a.started = op.To, false, false
	s.completed++
}

func (s *shadowLedger) OpRejected(*NodeMemory, *Op) { s.rejected++ }

// counters returns the reconstructed optimistic and pessimistic usage and
// the number of admitted ops not yet started (the reservation station).
func (s *shadowLedger) counters() (opt, pess int64, parked int) {
	for _, a := range s.allocs {
		switch {
		case !a.inflight:
			opt += a.size
			pess += a.size
		case a.started:
			opt += a.to
			pess += max(a.from, a.to)
		default:
			opt += a.to
			pess += a.size
			parked++
		}
	}
	return opt, pess, parked
}

// FuzzLedger decodes bytes into random scale-ups and scale-downs across six
// allocations on one node — zero-duration ops among them, and OnComplete
// callbacks that re-enter Demand — and checks after every step, and inside
// every completion cascade, that the ledger passes CheckInvariants and
// agrees with a reconstruction from its own op stream. At the end every
// admitted op must have run: the reservation station drains and both
// counters settle at the summed allocation sizes.
//
// Each step reads four bytes: owner and time advance, target size,
// duration (a quarter of ops complete inline), and a re-entry spec for the
// op's completion callback.
func FuzzLedger(f *testing.F) {
	f.Add([]byte{0, 200, 1, 0, 1, 200, 2, 0, 2, 255, 0, 0, 0, 0, 0, 3})
	f.Add([]byte{0, 250, 0, 0, 0, 30, 3, 0x15, 1, 120, 1, 0x27, 2, 200, 0, 0x03})
	f.Add([]byte{0x40, 255, 0, 0, 0x41, 128, 2, 0x0b, 0x42, 128, 0, 0x31, 0x40, 0, 0, 0x0f, 0x43, 64, 1, 0x1d})
	f.Add([]byte{5, 255, 2, 1, 4, 255, 2, 1, 5, 0, 1, 0x37, 3, 90, 0, 0x2f, 4, 10, 0, 0x11})
	// A drain re-parks a big scale-up, then starts a small zero-duration
	// one whose completion shrinks another allocation inline: the drain
	// must take another pass and start the big one now, not when the
	// remaining scale-down lands.
	f.Add([]byte{2, 77, 0, 0, 0, 77, 0, 0, 1, 77, 0, 0, 0, 0, 1, 0, 1, 0, 3, 0, 4, 128, 1, 0, 0x35, 26, 0, 0x20})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 4*256 {
			data = data[:4*256]
		}
		s := sim.New()
		nm := New(s, "fuzz", fuzzCapacity)
		sh := &shadowLedger{allocs: map[string]*shadowAlloc{}}
		nm.Observer = sh
		owners := [6]string{"a/kv", "a/weights", "b/kv", "b/weights", "c/kv", "c/weights"}
		var demanded, refused int64

		// check compares the ledger with the reconstruction. Between events
		// (quiescent) it also holds the station to its promise — no parked
		// op is safe to start, since every completion that frees bytes
		// re-examines the station — and compares its depth; inside a
		// completion cascade a drain may be mid-pass, with the station off
		// while it is re-examined.
		step := 0
		fail := func(where, format string, args ...any) {
			t.Helper()
			t.Fatalf("step %d, %s: %s", step, where, fmt.Sprintf(format, args...))
		}
		check := func(where string, quiescent bool) {
			t.Helper()
			if err := nm.CheckInvariants(); err != nil {
				fail(where, "%v", err)
			}
			opt, pess, parked := sh.counters()
			if got := nm.OptimisticUsed(); got != opt {
				fail(where, "optimistic %d, reconstructed %d", got, opt)
			}
			if got := nm.PessimisticUsed(); got != pess {
				fail(where, "pessimistic %d, reconstructed %d", got, pess)
			}
			if quiescent {
				if got := nm.StationDepth(); got != parked {
					fail(where, "station depth %d, reconstructed %d", got, parked)
				}
				for name, a := range sh.allocs {
					if a.inflight && !a.started && pess+a.to-a.size <= fuzzCapacity {
						fail(where, "%s (%d->%d) still parked although pessimistic %d leaves room",
							name, a.size, a.to, pess)
					}
				}
			}
			started, completed, _, rejected := nm.Stats()
			if started != sh.started || completed != sh.completed || rejected != sh.rejected || rejected != refused {
				fail(where, "stats started=%d completed=%d rejected=%d, stream %d/%d/%d, refused %d",
					started, completed, rejected, sh.started, sh.completed, sh.rejected, refused)
			}
			if sh.admitted+sh.rejected != demanded {
				fail(where, "%d demands, stream saw %d admitted + %d rejected",
					demanded, sh.admitted, sh.rejected)
			}
		}

		// demand issues one op on the first allocation at or after owner
		// with nothing in flight (callers keep one op per allocation), its
		// From chained to the allocation's admitted size. reentry, when
		// nonzero, makes the op's completion demand again.
		var demand func(owner int, target int64, dur sim.Duration, reentry byte)
		demand = func(owner int, target int64, dur sim.Duration, reentry byte) {
			for k := 0; k < len(owners); k++ {
				name := owners[(owner+k)%len(owners)]
				a := sh.alloc(name)
				if a.inflight {
					continue
				}
				op := nm.AcquireOp()
				op.Kind, op.Owner = ResizeKV, name
				op.From, op.To, op.Duration = a.size, target, dur
				if reentry != 0 {
					next := owner + 1 + int(reentry>>4)
					nextTarget := int64(reentry&0x0f) * fuzzCapacity / 15
					nextDur := sim.Duration(reentry>>2&1) * 0.1
					op.OnComplete = func() {
						check("in a completion cascade", false)
						demand(next, nextTarget, nextDur, 0)
						check("after a re-entrant demand", false)
					}
				}
				demanded++
				if !nm.Demand(op) {
					refused++
					nm.ReleaseOp(op)
				}
				return
			}
		}

		for ; 4*step+4 <= len(data); step++ {
			b := data[4*step : 4*step+4]
			owner := int(b[0]) % len(owners)
			target := int64(b[1]) * fuzzCapacity / 255
			dur := sim.Duration(b[2]%4) * 0.1
			demand(owner, target, dur, b[3])
			check("after its demand", true)
			s.RunUntil(s.Now().Add(sim.Duration(b[0]>>4) * 0.05))
			check("after the time advance", true)
		}
		s.Run()
		check("at the end", true)
		opt, pess, parked := sh.counters()
		if parked != 0 || opt != pess {
			t.Fatalf("end: %d ops still parked, optimistic %d, pessimistic %d", parked, opt, pess)
		}
	})
}
