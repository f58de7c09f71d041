package kvcache

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"slinfer/internal/sim"
)

func TestTransferTimeCalibration(t *testing.T) {
	// ~26 GB/s effective PCIe: promoting 1 GB takes 38 ms.
	if got := PromoteTime(1e9).Seconds(); got < 0.035 || got > 0.041 {
		t.Errorf("PromoteTime(1GB) = %.3f s, want ~0.038", got)
	}
	if got := SpillTime(1e9).Seconds(); got < 0.039 || got > 0.045 {
		t.Errorf("SpillTime(1GB) = %.3f s, want ~0.042", got)
	}
	if PromoteTime(0) != 0 || SpillTime(-5) != 0 {
		t.Error("non-positive transfers must be free")
	}
}

func TestTieredConfigDefaults(t *testing.T) {
	var off TieredConfig
	if off.WithDefaults() != off {
		t.Error("disabled config must stay zero")
	}
	on := TieredConfig{Enabled: true}.WithDefaults()
	if on.GPUBytes != 4<<30 || on.CPUBytes != 16<<30 || on.BlockTokens != DefaultBlockTokens {
		t.Errorf("defaults = %+v", on)
	}
	if got := (TieredConfig{Enabled: true, CPUBytes: -1}).WithDefaults().CPUBytes; got != 0 {
		t.Errorf("negative host tier defaults to %d bytes, want 0 (no host tier)", got)
	}
	cases := []struct {
		cfg TieredConfig
		ok  bool
	}{
		{TieredConfig{Enabled: true}, true}, // every size defaulted
		{on, true},
		{TieredConfig{Enabled: true, CPUBytes: -1}, true}, // no host tier
		{TieredConfig{Enabled: true, GPUBytes: 1, CPUBytes: -1 << 20, BlockTokens: 8}, true},
		{TieredConfig{GPUBytes: -1, BlockTokens: -3}, true}, // disabled: sizes unused
		{TieredConfig{Enabled: true, GPUBytes: -1}, false},
		{TieredConfig{Enabled: true, GPUBytes: -5 << 20, BlockTokens: -3}, false},
		{TieredConfig{Enabled: true, GPUBytes: 1, BlockTokens: -3}, false},
		{TieredConfig{Enabled: true, CPUBytes: -1, BlockTokens: -1}, false},
	}
	for _, c := range cases {
		if err := c.cfg.Validate(); (err == nil) != c.ok {
			t.Errorf("%+v: Validate() = %v, want ok=%v", c.cfg, err, c.ok)
		}
		if c.ok && c.cfg.WithDefaults().Validate() != nil {
			t.Errorf("%+v: valid config fails validation once defaulted", c.cfg)
		}
		if once := c.cfg.WithDefaults(); once.WithDefaults() != once {
			t.Errorf("%+v: defaulting twice gives %+v, once %+v", c.cfg, once.WithDefaults(), once)
		}
	}
	// A store's defaulted config fed back in keeps the host tier off.
	noHost := NewTieredStore(TieredConfig{Enabled: true, CPUBytes: -1})
	if noHost.Reset(noHost.Config()); noHost.Config().CPUBytes != 0 {
		t.Errorf("reset with its own config: host tier %d bytes, want 0", noHost.Config().CPUBytes)
	}
}

func TestSegmentOwner(t *testing.T) {
	const open = math.MaxInt
	cases := []struct {
		key  string
		tok  int
		want string
		end  int
	}{
		{"sess7", 0, "sess7", open},
		{"sess7", 9999, "sess7", open},
		{"tpl3@512/sess17", 0, "tpl3@512", 512},
		{"tpl3@512/sess17", 511, "tpl3@512", 512},
		{"tpl3@512/sess17", 512, "tpl3@512/sess17", open},
		{"tpl3@512/sess17", 4096, "tpl3@512/sess17", open},
		{"a@16/b@16/c", 20, "a@16/b@16", 32},
		{"a@16/b@16/c", 32, "a@16/b@16/c", open},
		{"a@16/b@16", 40, "a@16/b@16", open}, // the last segment owns the rest
	}
	for _, c := range cases {
		if got, end := segmentSpan(c.key, c.tok); got != c.want || end != c.end {
			t.Errorf("segmentSpan(%q, %d) = (%q, %d), want (%q, %d)", c.key, c.tok, got, end, c.want, c.end)
		}
	}
	// Every token of a span has the span's owner, and the owner agrees
	// with the strings.Split restatement.
	for _, key := range []string{"sess7", "tpl3@40/sess17", "a@16/b@0/c@5/d", "x@/y", "a@16/", "a@16//b"} {
		for tok := 0; tok < 80; tok++ {
			owner, end := segmentSpan(key, tok)
			if want := refOwner(key, tok); owner != want {
				t.Fatalf("segmentSpan(%q, %d) owner %q, ref %q", key, tok, owner, want)
			}
			for u := tok; u < min(end, 80); u++ {
				if got := refOwner(key, u); got != owner {
					t.Fatalf("segmentSpan(%q, %d) = (%q, %d) but token %d is owned by %q", key, tok, owner, end, u, got)
				}
			}
		}
	}
}

func TestPrefixRoot(t *testing.T) {
	if PrefixRoot("tpl3@512/sess17") != "tpl3@512" || PrefixRoot("sess7") != "sess7" {
		t.Error("PrefixRoot wrong")
	}
}

func TestTieredStoreBasicSharing(t *testing.T) {
	const kvb = 1 << 20 // 1 MiB per token
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 1 << 40, CPUBytes: 1 << 40, BlockTokens: 16})

	// Cold lookup misses and counts as such.
	hit, xfer := s.Lookup("m", "tplA@64/sess1", 128, kvb)
	if hit != 0 || xfer != 0 {
		t.Fatalf("cold lookup hit %d tokens", hit)
	}
	// Session 1 completes a 128+32 context; the next turn shares all of it.
	s.Insert("m", "tplA@64/sess1", 160, kvb)
	hit, xfer = s.Lookup("m", "tplA@64/sess1", 200, kvb)
	if hit != 160 || xfer != 0 {
		t.Fatalf("warm same-session lookup hit %d tokens (xfer %v), want 160", hit, xfer)
	}
	// A different session under the same template shares only the 64
	// template tokens.
	hit, _ = s.Lookup("m", "tplA@64/sess2", 128, kvb)
	if hit != 64 {
		t.Fatalf("cross-session lookup hit %d tokens, want 64", hit)
	}
	// A different template shares nothing; a different model shares nothing.
	if hit, _ = s.Lookup("m", "tplB@64/sess3", 128, kvb); hit != 0 {
		t.Fatalf("cross-template lookup hit %d tokens, want 0", hit)
	}
	if hit, _ = s.Lookup("m2", "tplA@64/sess1", 128, kvb); hit != 0 {
		t.Fatalf("cross-model lookup hit %d tokens, want 0", hit)
	}
	if !s.Ledger.Conserved() {
		t.Fatalf("ledger not conserved: %+v", s.Ledger)
	}
}

func TestTieredStoreSpillAndPromote(t *testing.T) {
	const kvb = 1 << 20
	const block = 16 * kvb
	// GPU holds 4 blocks, CPU holds 4 more.
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 4 * block, CPUBytes: 4 * block, BlockTokens: 16})

	s.Insert("m", "sessA", 64, kvb) // 4 blocks fill the GPU tier
	if s.Ledger.GPUBytes != 4*block || s.Ledger.Spills != 0 {
		t.Fatalf("after fill: %+v", s.Ledger)
	}
	s.Insert("m", "sessB", 32, kvb) // 2 blocks spill sessA's coldest 2
	if s.Ledger.Spills != 2 || s.Ledger.CPUBytes != 2*block || s.Ledger.GPUBytes != 4*block {
		t.Fatalf("after spill: %+v", s.Ledger)
	}
	// LRU spilled sessA blocks 0,1 (pushed first, never refreshed) to the
	// host tier. Walking sessA again promotes block 0, which spills the
	// then-coldest GPU blocks (sessA 2,3) — so all 4 blocks end up served
	// through the CPU tier on this pass. Deterministic, and pinned here.
	hit, xfer := s.Lookup("m", "sessA", 64, kvb)
	if hit != 64 {
		t.Fatalf("sessA lookup hit %d tokens, want 64", hit)
	}
	if s.Ledger.CPUHitBytes != 4*block || xfer != PromoteTime(4*block) {
		t.Fatalf("promotion: cpuHit=%d xfer=%v", s.Ledger.CPUHitBytes, xfer)
	}
	if !s.Ledger.Conserved() {
		t.Fatalf("ledger not conserved: %+v", s.Ledger)
	}
	gpu, cpu := s.TierUsage()
	if gpu != s.Ledger.GPUBytes || cpu != s.Ledger.CPUBytes {
		t.Fatalf("usage walk (%d, %d) != ledger (%d, %d)", gpu, cpu, s.Ledger.GPUBytes, s.Ledger.CPUBytes)
	}
}

func TestTieredStoreEviction(t *testing.T) {
	const kvb = 1 << 20
	const block = 16 * kvb
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 2 * block, CPUBytes: 2 * block, BlockTokens: 16})
	// 6 blocks through a 4-block store: 2 must be freed.
	s.Insert("m", "sessA", 32, kvb)
	s.Insert("m", "sessB", 32, kvb)
	s.Insert("m", "sessC", 32, kvb)
	l := s.Ledger
	if l.Evictions != 2 || l.FreedBytes != 2*block {
		t.Fatalf("evictions: %+v", l)
	}
	if !l.Conserved() {
		t.Fatalf("ledger not conserved: %+v", l)
	}
	// The oldest session is gone entirely.
	if hit, _ := s.Lookup("m", "sessA", 32, kvb); hit != 0 {
		t.Fatalf("evicted session still hits %d tokens", hit)
	}
	// No-CPU config frees spills directly.
	s2 := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 2 * block, CPUBytes: -1, BlockTokens: 16})
	s2.Insert("m", "sessA", 32, kvb)
	s2.Insert("m", "sessB", 32, kvb)
	if s2.Ledger.Spills != 0 || s2.Ledger.Evictions != 2 || s2.Ledger.CPUBytes != 0 {
		t.Fatalf("tierless spill: %+v", s2.Ledger)
	}
}

func TestTieredStoreResidency(t *testing.T) {
	const kvb = 1 << 20
	const block = 16 * kvb
	s := NewTieredStore(TieredConfig{Enabled: true, GPUBytes: 1 << 40, CPUBytes: 1 << 40, BlockTokens: 16})
	s.Insert("m", "tplA@32/sess1", 64, kvb)
	s.Insert("m", "tplB@32/sess2", 32, kvb)
	got := s.AppendResidency(nil)
	want := []RootResidency{{Root: "tplA@32", Bytes: 4 * block}, {Root: "tplB@32", Bytes: 2 * block}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("residency = %v, want %v", got, want)
	}
}

// --- Reference model for the property and fuzz tests ---------------------
//
// refStore mirrors the tiered store with naive data structures: block
// identities are explicit strings (the full (owner, index) chain), tiers
// are ordered slices, residency is a walk over both tiers, and every
// LRU/spill/evict/promote rule is restated independently. Divergence on
// any operation is a bug in one of them.

type refBlock struct {
	id    string
	bytes int64
	root  string
}

type refStore struct {
	cfg      TieredConfig
	gpu, cpu []refBlock // front = most recently used
	ledger   TierLedger
}

func newRefStore(cfg TieredConfig) *refStore {
	return &refStore{cfg: cfg.WithDefaults()}
}

// refOwner restates segmentSpan's owner with strings.Split.
func refOwner(key string, tok int) string {
	segs := strings.Split(key, "/")
	covered := 0
	for k, seg := range segs {
		tokens := -1
		if at := strings.IndexByte(seg, '@'); at >= 0 {
			tokens = 0
			for _, d := range seg[at+1:] {
				if d >= '0' && d <= '9' {
					tokens = tokens*10 + int(d-'0')
				}
			}
		}
		if tokens < 0 || tok < covered+tokens || k == len(segs)-1 {
			return strings.Join(segs[:k+1], "/")
		}
		covered += tokens
	}
	return key
}

// refID extends block i-1's identity (prev) to block i's: the model, then
// every (owner, index) pair of the chain so far.
func refID(prev, key string, i, blockTokens int) string {
	return fmt.Sprintf("%s|%s#%d", prev, refOwner(key, i*blockTokens), i)
}

func (r *refStore) find(id string) (tier *[]refBlock, idx int) {
	for i := range r.gpu {
		if r.gpu[i].id == id {
			return &r.gpu, i
		}
	}
	for i := range r.cpu {
		if r.cpu[i].id == id {
			return &r.cpu, i
		}
	}
	return nil, -1
}

func (r *refStore) bytes(tier []refBlock) int64 {
	var n int64
	for _, b := range tier {
		n += b.bytes
	}
	return n
}

func remove(tier *[]refBlock, i int) refBlock {
	b := (*tier)[i]
	*tier = append((*tier)[:i], (*tier)[i+1:]...)
	return b
}

func pushFront(tier *[]refBlock, b refBlock) {
	*tier = append([]refBlock{b}, *tier...)
}

func (r *refStore) makeGPURoom(need int64) {
	for r.bytes(r.gpu)+need > r.cfg.GPUBytes && len(r.gpu) > 0 {
		victim := remove(&r.gpu, len(r.gpu)-1)
		r.ledger.GPUBytes -= victim.bytes
		if r.cfg.CPUBytes > 0 && victim.bytes <= r.cfg.CPUBytes {
			r.makeCPURoom(victim.bytes)
			pushFront(&r.cpu, victim)
			r.ledger.CPUBytes += victim.bytes
			r.ledger.Spills++
			r.ledger.SpillBytes += victim.bytes
		} else {
			r.ledger.FreedBytes += victim.bytes
			r.ledger.Evictions++
		}
	}
}

func (r *refStore) makeCPURoom(need int64) {
	for r.bytes(r.cpu)+need > r.cfg.CPUBytes && len(r.cpu) > 0 {
		victim := remove(&r.cpu, len(r.cpu)-1)
		r.ledger.CPUBytes -= victim.bytes
		r.ledger.FreedBytes += victim.bytes
		r.ledger.Evictions++
	}
}

func (r *refStore) Lookup(modelName, key string, inputTokens int, kvb int64) (hitTokens int, xfer sim.Duration) {
	if key == "" || inputTokens <= 0 {
		return 0, 0
	}
	bt := r.cfg.BlockTokens
	var promoted int64
	id := modelName
	for i := 0; i < inputTokens/bt; i++ {
		id = refID(id, key, i, bt)
		tier, idx := r.find(id)
		if tier == nil {
			break
		}
		b := remove(tier, idx)
		if tier == &r.cpu {
			promoted += b.bytes
			if b.bytes > r.cfg.GPUBytes {
				pushFront(&r.cpu, b)
			} else {
				r.ledger.CPUBytes -= b.bytes
				r.makeGPURoom(b.bytes)
				pushFront(&r.gpu, b)
				r.ledger.GPUBytes += b.bytes
			}
		} else {
			pushFront(&r.gpu, b)
		}
		hitTokens += bt
	}
	r.ledger.Lookups++
	if hitTokens > 0 {
		r.ledger.Hits++
	}
	r.ledger.HitBytes += int64(hitTokens) * kvb
	r.ledger.MissBytes += int64(inputTokens-hitTokens) * kvb
	r.ledger.CPUHitBytes += promoted
	return hitTokens, PromoteTime(promoted)
}

func (r *refStore) Insert(modelName, key string, contextTokens int, kvb int64) sim.Duration {
	if key == "" || contextTokens <= 0 {
		return 0
	}
	bt := r.cfg.BlockTokens
	blockBytes := int64(bt) * kvb
	spilled := r.ledger.SpillBytes
	id := modelName
	for i := 0; i < contextTokens/bt; i++ {
		id = refID(id, key, i, bt)
		if tier, idx := r.find(id); tier != nil {
			b := remove(tier, idx)
			pushFront(tier, b)
			continue
		}
		if blockBytes > r.cfg.GPUBytes {
			continue
		}
		r.makeGPURoom(blockBytes)
		pushFront(&r.gpu, refBlock{id: id, bytes: blockBytes, root: PrefixRoot(key)})
		r.ledger.AllocatedBytes += blockBytes
		r.ledger.GPUBytes += blockBytes
		r.ledger.Inserts++
	}
	return SpillTime(r.ledger.SpillBytes - spilled)
}

func (r *refStore) SetGPUCapacity(bytes int64) {
	if bytes <= 0 || bytes == r.cfg.GPUBytes {
		return
	}
	r.cfg.GPUBytes = bytes
	r.makeGPURoom(0)
}

func (r *refStore) Reset(cfg TieredConfig) { *r = *newRefStore(cfg) }

// residency sums resident bytes per root over both tiers, sorted by root.
func (r *refStore) residency() []RootResidency {
	var out []RootResidency
	for _, tier := range [][]refBlock{r.gpu, r.cpu} {
		for _, b := range tier {
			i := slices.IndexFunc(out, func(e RootResidency) bool { return e.Root == b.root })
			if i < 0 {
				i = len(out)
				out = append(out, RootResidency{Root: b.root})
			}
			out[i].Bytes += b.bytes
		}
	}
	slices.SortFunc(out, func(a, b RootResidency) int { return strings.Compare(a.Root, b.Root) })
	return out
}

// tieredPair drives a store and the reference through the same operations
// and fails on the first observable difference: hit tokens, transfer
// durations, the ledger, the tier walk, capacities and residency.
type tieredPair struct {
	t    testing.TB
	s    *TieredStore
	ref  *refStore
	step int
}

func newTieredPair(t testing.TB, cfg TieredConfig) *tieredPair {
	return &tieredPair{t: t, s: NewTieredStore(cfg), ref: newRefStore(cfg)}
}

func (p *tieredPair) lookup(m, key string, tokens int, kvb int64) {
	got, gotX := p.s.Lookup(m, key, tokens, kvb)
	want, wantX := p.ref.Lookup(m, key, tokens, kvb)
	if got != want || gotX != wantX {
		p.t.Fatalf("step %d: Lookup(%s, %q, %d) = (%d, %v), ref (%d, %v)", p.step, m, key, tokens, got, gotX, want, wantX)
	}
	p.check()
}

func (p *tieredPair) insert(m, key string, tokens int, kvb int64) {
	got, want := p.s.Insert(m, key, tokens, kvb), p.ref.Insert(m, key, tokens, kvb)
	if got != want {
		p.t.Fatalf("step %d: Insert(%s, %q, %d) spill %v, ref %v", p.step, m, key, tokens, got, want)
	}
	p.check()
}

func (p *tieredPair) setGPUCapacity(bytes int64) {
	p.s.SetGPUCapacity(bytes)
	p.ref.SetGPUCapacity(bytes)
	p.check()
}

func (p *tieredPair) reset(cfg TieredConfig) {
	p.s.Reset(cfg)
	p.ref.Reset(cfg)
	p.check()
}

func (p *tieredPair) check() {
	p.t.Helper()
	s, ref := p.s, p.ref
	if s.Ledger != ref.ledger {
		p.t.Fatalf("step %d: ledger diverged\n store: %+v\n   ref: %+v", p.step, s.Ledger, ref.ledger)
	}
	if !s.Ledger.Conserved() {
		p.t.Fatalf("step %d: conservation broken: %+v", p.step, s.Ledger)
	}
	gpu, cpu := s.TierUsage()
	if gpu != ref.bytes(ref.gpu) || cpu != ref.bytes(ref.cpu) || gpu != s.Ledger.GPUBytes || cpu != s.Ledger.CPUBytes {
		p.t.Fatalf("step %d: usage walk (%d, %d), ref (%d, %d), ledger (%d, %d)", p.step,
			gpu, cpu, ref.bytes(ref.gpu), ref.bytes(ref.cpu), s.Ledger.GPUBytes, s.Ledger.CPUBytes)
	}
	if cfg := s.Config(); cfg != ref.cfg || gpu > cfg.GPUBytes || cpu > cfg.CPUBytes {
		p.t.Fatalf("step %d: config %+v (ref %+v) with gpu=%d cpu=%d resident", p.step, cfg, ref.cfg, gpu, cpu)
	}
	if got, want := s.AppendResidency(nil), ref.residency(); !slices.Equal(got, want) {
		p.t.Fatalf("step %d: residency %v, ref %v", p.step, got, want)
	}
	p.step++
}

// TestTieredStorePropertyVsReference drives the real store and the naive
// reference through the same seeded operation stream and demands identical
// hit counts, ledgers, and tier usage after every step — and identical
// ledgers across a second run with the same seed (determinism).
func TestTieredStorePropertyVsReference(t *testing.T) {
	run := func(seed int64) TierLedger {
		const kvb = 1 << 10
		const block = int64(16) * kvb
		p := newTieredPair(t, TieredConfig{Enabled: true, GPUBytes: 6 * block, CPUBytes: 4 * block, BlockTokens: 16})
		rng := rand.New(rand.NewSource(seed))
		models := []string{"llama", "mistral"}
		keys := []string{
			"tpl0@64/sess0", "tpl0@64/sess1", "tpl0@64/sess2",
			"tpl1@32/sess3", "tpl1@32/sess4",
			"sess5", "sess6", "",
		}
		for step := 0; step < 2000; step++ {
			m := models[rng.Intn(len(models))]
			key := keys[rng.Intn(len(keys))]
			tokens := rng.Intn(300)
			if rng.Intn(2) == 0 {
				p.lookup(m, key, tokens, kvb)
			} else {
				p.insert(m, key, tokens, kvb)
			}
		}
		return p.s.Ledger
	}
	for _, seed := range propertySeeds {
		a, b := run(seed), run(seed)
		if a != b {
			t.Fatalf("seed %d: two runs diverged:\n%+v\n%+v", seed, a, b)
		}
	}
}

var propertySeeds = []int64{1, 7, 42}

// fuzzUnit is one 16-token block of the fuzz target's smaller model.
const fuzzUnit = 16 << 10

// fuzzConfigs are the store sizes FuzzTiered picks from: small tiers so a
// short op stream spills, evicts and promotes; one has no host tier, one a
// GPU tier smaller than the larger model's block, one 8-token blocks.
var fuzzConfigs = []TieredConfig{
	{Enabled: true, GPUBytes: 6 * fuzzUnit, CPUBytes: 4 * fuzzUnit, BlockTokens: 16},
	{Enabled: true, GPUBytes: 3 * fuzzUnit, CPUBytes: -1, BlockTokens: 16},
	{Enabled: true, GPUBytes: fuzzUnit, CPUBytes: 8 * fuzzUnit, BlockTokens: 16},
	{Enabled: true, GPUBytes: 5 * fuzzUnit, CPUBytes: fuzzUnit, BlockTokens: 8},
}

// FuzzTiered decodes bytes into a stream of Lookup, Insert, SetGPUCapacity
// and Reset calls over two models with different per-token sizes, pinned,
// open-ended and empty keys, and checks the store against the reference
// after every call.
func FuzzTiered(f *testing.F) {
	f.Add([]byte{0})
	for _, seed := range propertySeeds {
		data := make([]byte, 256)
		rand.New(rand.NewSource(seed)).Read(data)
		f.Add(data)
	}
	models := []struct {
		name string
		kvb  int64
	}{{"llama", fuzzUnit / 16}, {"mistral", 3 * fuzzUnit / 32}}
	keys := []string{
		"tpl0@64/sess0", "tpl0@64/sess1", "tpl1@32/sess3", "a@16/b@16/c",
		"a@16/b@16", "sess5", "sess6", "",
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		p := newTieredPair(t, fuzzConfigs[int(data[0])%len(fuzzConfigs)])
		ops := data[1:]
		for i := 0; i+1 < len(ops) && i < 512; i += 2 {
			op, arg := ops[i], ops[i+1]
			m := models[(op>>3)&1]
			key := keys[int(op>>4)%len(keys)]
			tokens := 2 * int(arg)
			switch op % 8 {
			case 0, 1, 2:
				p.lookup(m.name, key, tokens, m.kvb)
			case 3, 4, 5:
				p.insert(m.name, key, tokens, m.kvb)
			case 6:
				p.setGPUCapacity(int64(1+arg%12) * fuzzUnit / 2)
			case 7:
				p.reset(fuzzConfigs[int(arg)%len(fuzzConfigs)])
			}
		}
	})
}

// Reset must behave exactly like a fresh store.
func TestTieredStoreReset(t *testing.T) {
	cfg := TieredConfig{Enabled: true, GPUBytes: 1 << 30, CPUBytes: 1 << 30, BlockTokens: 16}
	s := NewTieredStore(cfg)
	s.Insert("m", "sessA", 160, 1<<20)
	s.Reset(cfg)
	if s.Ledger != (TierLedger{}) {
		t.Fatalf("ledger after reset: %+v", s.Ledger)
	}
	if hit, _ := s.Lookup("m", "sessA", 160, 1<<20); hit != 0 {
		t.Fatalf("stale blocks survived reset: hit %d", hit)
	}
	if got := s.AppendResidency(nil); len(got) != 0 {
		t.Fatalf("stale residency after reset: %v", got)
	}
}

// A store that ran a workload and was Reset answers op for op like a fresh
// one, and once warm a Reset-plus-churn round allocates nothing: the slab,
// index and root table are reused in place.
func TestTieredStoreReuse(t *testing.T) {
	const kvb = 1 << 10
	small := TieredConfig{Enabled: true, GPUBytes: 8 * fuzzUnit, CPUBytes: 8 * fuzzUnit, BlockTokens: 16}
	big := TieredConfig{Enabled: true, GPUBytes: 64 * fuzzUnit, CPUBytes: -1, BlockTokens: 8}
	keys := []string{"tpl0@64/sess0", "tpl0@64/sess1", "tpl1@32/sess2", "sess3", "sess4"}
	workload := func(s *TieredStore, seed int64) []int64 {
		rng := rand.New(rand.NewSource(seed))
		var out []int64
		for range 500 {
			key, tokens := keys[rng.Intn(len(keys))], rng.Intn(600)
			hit, xfer := s.Lookup("m", key, tokens, kvb)
			out = append(out, int64(hit), int64(xfer), int64(s.Insert("m", key, tokens, kvb)))
		}
		return out
	}
	for _, cfg := range []TieredConfig{small, big} {
		used := NewTieredStore(big)
		workload(used, 3)
		used.Reset(cfg)
		fresh := NewTieredStore(cfg)
		if a, b := workload(used, 9), workload(fresh, 9); !slices.Equal(a, b) {
			t.Fatalf("%+v: reset store diverged from a fresh one", cfg)
		}
		if used.Ledger != fresh.Ledger || !slices.Equal(used.AppendResidency(nil), fresh.AppendResidency(nil)) {
			t.Fatalf("%+v: reset ledger %+v, fresh %+v", cfg, used.Ledger, fresh.Ledger)
		}
	}

	s := NewTieredStore(small)
	round := func() {
		s.Reset(small)
		for turn := 1; turn <= 4; turn++ {
			for _, key := range keys {
				s.Lookup("m", key, 64*turn, kvb)
				s.Insert("m", key, 64*turn+32, kvb)
			}
		}
	}
	round() // warm-up sizes the slab, index and root table
	if s.Ledger.Evictions == 0 {
		t.Fatalf("round never evicts: %+v", s.Ledger)
	}
	if allocs := testing.AllocsPerRun(10, round); allocs != 0 {
		t.Fatalf("steady-state round allocates %.1f times", allocs)
	}
}
