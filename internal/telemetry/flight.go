package telemetry

import (
	"fmt"
	"strings"
)

// DumpTail renders the flight-recorder ring in chronological order — the
// last Options.FlightRing events this recorder saw. The invariants suite
// calls it on the first violation (see invariants.Suite), turning "checker
// failed at t=483.2" into the event log that led there. Empty when no ring
// is configured or nothing was recorded.
func (r *Recorder) DumpTail() string {
	if r == nil || r.ringLen == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "flight recorder: last %d telemetry events (shard %d)\n", r.ringLen, r.shard)
	start := r.ringPos - r.ringLen
	if start < 0 {
		start += len(r.ring)
	}
	for i := 0; i < r.ringLen; i++ {
		ev := r.ring[(start+i)%len(r.ring)]
		fmt.Fprintf(&b, "  t=%s %s", formatTime(ev.T), ev.Kind)
		if ev.Req >= 0 {
			fmt.Fprintf(&b, " req=%d", ev.Req)
		}
		if ev.Inst >= 0 {
			fmt.Fprintf(&b, " inst=%d", ev.Inst)
		}
		if ev.A != 0 || ev.B != 0 {
			fmt.Fprintf(&b, " a=%d b=%d", ev.A, ev.B)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Last returns the most recent event in the flight ring; ok is false when
// no ring is configured or nothing was recorded yet.
func (r *Recorder) Last() (ev Event, ok bool) {
	if r == nil || r.ringLen == 0 {
		return Event{}, false
	}
	i := r.ringPos - 1
	if i < 0 {
		i += len(r.ring)
	}
	return r.ring[i], true
}
