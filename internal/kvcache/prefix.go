// Prefix-aware tiered KV cache (ROADMAP open item #1). Completed requests
// demote their KV blocks into a shared two-tier pool (GPU-resident, then
// host-spill) instead of dropping them; admission looks the new request's
// prefix up by token-block hash chain and charges prefill only for the
// uncached suffix plus a PCIe promotion cost for host-resident blocks.
//
// The index is a radix chain over token blocks, not tokens: block i of a
// request hashes the previous block's hash, the owning PrefixKey segment,
// and the block index, so two requests share exactly the leading blocks
// whose key segments and positions agree. PrefixKeys are hierarchical —
// "tpl3@512/sess17" pins the first 512 tokens to template 3 (shared across
// every session using it) and the remainder to session 17 (shared across
// that conversation's turns).
package kvcache

import (
	"fmt"
	"math"

	"slinfer/internal/sim"
)

// Tier transfer cost model, calibrated the same way as ScaleTime: an
// effective ~26 GB/s PCIe 4.0 x16 link gives 0.038 s/GB host-to-device;
// device-to-host spills overlap worse with compute and land near 0.042.
const (
	promoteSecPerGB = 0.038
	spillSecPerGB   = 0.042
)

// PromoteTime returns the host-to-device transfer cost of promoting bytes
// from the CPU tier back into GPU memory on a prefix hit.
func PromoteTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(promoteSecPerGB * float64(bytes) / 1e9)
}

// SpillTime returns the device-to-host cost of demoting bytes to the CPU
// tier. The simulator books it as background copy overhead, not a stall.
func SpillTime(bytes int64) sim.Duration {
	if bytes <= 0 {
		return 0
	}
	return sim.Duration(spillSecPerGB * float64(bytes) / 1e9)
}

// DefaultBlockTokens is the paged-attention block granularity the prefix
// index shares at when TieredConfig.BlockTokens is zero.
const DefaultBlockTokens = 16

// TieredConfig sizes the shared prefix pool. The zero value disables prefix
// sharing entirely (every preset keeps its golden report byte-identical).
type TieredConfig struct {
	// Enabled turns the tiered prefix store on.
	Enabled bool
	// GPUBytes caps the GPU-resident tier.
	GPUBytes int64
	// CPUBytes caps the host spill tier; zero means the default (4x the
	// GPU tier), negative means no host tier: spilled blocks are freed
	// immediately.
	CPUBytes int64
	// BlockTokens is the sharing granularity (default DefaultBlockTokens).
	BlockTokens int

	// noHostTier records that WithDefaults turned a negative CPUBytes into
	// zero, so defaulting again keeps the host tier off instead of reading
	// the zero as "default".
	noHostTier bool
}

// WithDefaults fills zero fields with usable defaults: 4 GiB GPU tier and a
// 4x host tier, 16-token blocks. A negative CPUBytes becomes zero (no host
// tier). Defaulting is idempotent, so a defaulted config — a store's
// Config() included — can be passed back to NewTieredStore or Reset.
func (c TieredConfig) WithDefaults() TieredConfig {
	if !c.Enabled {
		return c
	}
	if c.GPUBytes <= 0 {
		c.GPUBytes = 4 << 30
	}
	if c.CPUBytes < 0 {
		c.CPUBytes, c.noHostTier = 0, true
	} else if c.CPUBytes == 0 && !c.noHostTier {
		c.CPUBytes = 4 * c.GPUBytes
	}
	if c.BlockTokens <= 0 {
		c.BlockTokens = DefaultBlockTokens
	}
	return c
}

// Validate rejects tier sizes WithDefaults cannot make sense of: a
// negative GPU tier or block size. Zero fields mean the defaults and a
// negative CPU tier means no host tier, so a config validates both before
// and after WithDefaults.
func (c TieredConfig) Validate() error {
	if !c.Enabled {
		return nil
	}
	if c.GPUBytes < 0 {
		return fmt.Errorf("kvcache: prefix GPU tier %d bytes, want >= 0 (0 = default)", c.GPUBytes)
	}
	if c.BlockTokens < 0 {
		return fmt.Errorf("kvcache: prefix block %d tokens, want >= 0 (0 = default)", c.BlockTokens)
	}
	return nil
}

// TierLedger counts every byte that moves through the tiered store. The
// invariants suite holds it to the conservation law
//
//	AllocatedBytes == GPUBytes + CPUBytes + FreedBytes
//
// after every transition, and reconciles the resident tiers against a walk
// of the actual block lists at end of run.
type TierLedger struct {
	// AllocatedBytes is the lifetime total admitted into the store.
	AllocatedBytes int64
	// GPUBytes / CPUBytes are the bytes currently resident in each tier.
	GPUBytes int64
	CPUBytes int64
	// FreedBytes is the lifetime total evicted out of both tiers.
	FreedBytes int64

	// Lookups counts Lookup calls; Hits counts those matching >= 1 block.
	Lookups int64
	Hits    int64
	// HitBytes / MissBytes split each lookup's input bytes by whether the
	// leading blocks were resident.
	HitBytes  int64
	MissBytes int64
	// CPUHitBytes is the subset of HitBytes served from the host tier
	// (each such byte pays PromoteTime).
	CPUHitBytes int64

	// Inserts counts blocks admitted; Spills counts GPU->CPU demotions;
	// Evictions counts blocks freed out of the store.
	Inserts   int64
	Spills    int64
	Evictions int64
	// SpillBytes is the lifetime total demoted GPU->CPU.
	SpillBytes int64
}

// Conserved reports whether the byte-conservation law holds.
func (l TierLedger) Conserved() bool {
	return l.AllocatedBytes == l.GPUBytes+l.CPUBytes+l.FreedBytes
}

// TierTrace receives per-transition telemetry from a tiered store: bytes
// promoted back to GPU on a hit, spilled to the host tier to make room,
// and evicted out of the store entirely. The core controller adapts it
// onto its telemetry recorder (internal/telemetry), stamping virtual time
// at the call site; nil costs one branch per transition. Purely
// observational — implementations must not touch the store.
type TierTrace interface {
	TierPromoted(bytes int64)
	TierSpilled(bytes int64)
	TierEvicted(bytes int64)
}

// Block tier tags.
const (
	tierGPU = int8(0)
	tierCPU = int8(1)
)

// noBlock is the nil slab index: list ends, an empty free list.
const noBlock = int32(-1)

// maxPresizeBlocks caps the slab and index capacity the first Insert
// reserves for a full store, so huge tiers do not allocate up front; past
// it the slab and index grow by doubling.
const maxPresizeBlocks = 1 << 12

// tierBlock is one resident token block. Blocks live by value in the
// store's slab and link by slab index, so the slab holds no pointers and
// the GC never scans it. A live block sits in the hash index and on exactly
// one tier's intrusive LRU list; evicted slots recycle through the free
// list, chained by next.
type tierBlock struct {
	hash       uint64
	bytes      int64
	root       int32 // interned leading PrefixKey segment, for residency accounting
	prev, next int32 // LRU neighbours, noBlock at the list ends
	tier       int8
}

// tierList is an intrusive doubly-linked LRU list over the slab: front is
// most recently used, eviction candidates come off the back.
type tierList struct {
	front, back int32
	bytes       int64
}

var emptyList = tierList{front: noBlock, back: noBlock}

//slinfer:hotpath
func (l *tierList) pushFront(slab []tierBlock, i int32) {
	b := &slab[i]
	b.prev = noBlock
	b.next = l.front
	if l.front != noBlock {
		slab[l.front].prev = i
	}
	l.front = i
	if l.back == noBlock {
		l.back = i
	}
	l.bytes += b.bytes
}

//slinfer:hotpath
func (l *tierList) remove(slab []tierBlock, i int32) {
	b := &slab[i]
	if b.prev != noBlock {
		slab[b.prev].next = b.next
	} else {
		l.front = b.next
	}
	if b.next != noBlock {
		slab[b.next].prev = b.prev
	} else {
		l.back = b.prev
	}
	b.prev, b.next = noBlock, noBlock
	l.bytes -= b.bytes
}

// moveToFront marks block i most recently used.
//
//slinfer:hotpath
func (l *tierList) moveToFront(slab []tierBlock, i int32) {
	if l.front != i {
		l.remove(slab, i)
		l.pushFront(slab, i)
	}
}

// indexSlot is one entry of the open-addressed block index. The high 32
// bits hold the top of the block's mixed hash (chain hash times the
// Fibonacci constant), from which the home slot follows; the low 32 bits
// hold the slab index plus one, so the zero slot is empty and clear()
// empties the table. A tag match is confirmed against the slab's full hash.
type indexSlot uint64

// fibMix is 2^64 divided by the golden ratio: multiplying by it spreads
// chain hashes over the top bits, which pick the home slot.
const fibMix = 0x9E3779B97F4A7C15

// TieredStore is the controller-wide prefix pool: a deterministic block-hash
// index over two capacity-bounded LRU tiers. It is pure accounting plus a
// transfer cost model — simulated time advances only through the durations
// it returns.
type TieredStore struct {
	cfg  TieredConfig
	slab []tierBlock // every block, live or free; addressed by int32 index
	free int32       // head of the recycled-slot list
	gpu  tierList
	cpu  tierList

	// index maps a block's chain hash to its slab index: linear probing
	// from a Fibonacci-hashed home slot, at most half full, with
	// backward-shift deletion so no tombstones build up under churn.
	index      []indexSlot
	indexShift uint8 // 64 - log2(len(index))
	indexUsed  int

	// Leading PrefixKey segments are interned once per Insert: rootIDs
	// maps a root to its id, which indexes roots and rootBytes. rootBytes
	// tracks resident bytes per root; fleet snapshots consume it for
	// KV-affinity routing.
	rootIDs   map[string]int32
	roots     []string
	rootBytes []int64

	// Ledger is the store's transition accounting. Read-only for callers;
	// tests may corrupt it deliberately to prove the conservation checker
	// fires.
	Ledger TierLedger

	// Trace, if set, receives per-transition telemetry (see TierTrace).
	// Reset clears it; the controller rewires it per run.
	Trace TierTrace
}

// NewTieredStore returns an empty store for the given (defaulted) config.
func NewTieredStore(cfg TieredConfig) *TieredStore {
	s := new(TieredStore)
	s.Reset(cfg)
	return s
}

// Reset reinitializes a recycled store in place, equivalent to
// NewTieredStore(cfg). Resident blocks from the previous run are dropped;
// the slab, index and root table keep their capacity.
func (s *TieredStore) Reset(cfg TieredConfig) {
	clear(s.index)
	clear(s.rootIDs)
	clear(s.roots) // drop the previous run's key strings
	*s = TieredStore{
		cfg:        cfg.WithDefaults(),
		slab:       s.slab[:0],
		free:       noBlock,
		gpu:        emptyList,
		cpu:        emptyList,
		index:      s.index,
		indexShift: s.indexShift,
		rootIDs:    s.rootIDs,
		roots:      s.roots[:0],
		rootBytes:  s.rootBytes[:0],
	}
}

// Config returns the defaulted configuration the store runs with.
func (s *TieredStore) Config() TieredConfig { return s.cfg }

// SetGPUCapacity changes the GPU tier's capacity in place (fault
// injection: KVTierDegrade shrinks it, recovery restores it). Shrinking
// below current residency spills LRU blocks to the CPU tier immediately,
// so the capacity invariant (the invariant suite reads Config at check
// time) holds through the transition. No-op on a nil/zero-capacity store.
func (s *TieredStore) SetGPUCapacity(bytes int64) {
	if s == nil || bytes <= 0 || bytes == s.cfg.GPUBytes {
		return
	}
	s.cfg.GPUBytes = bytes
	s.makeGPURoom(0)
}

// BlockTokens returns the sharing granularity.
func (s *TieredStore) BlockTokens() int { return s.cfg.BlockTokens }

// TierUsage recomputes the resident bytes per tier by walking the block
// lists — the ground truth the ledger is reconciled against.
func (s *TieredStore) TierUsage() (gpuBytes, cpuBytes int64) {
	for b := s.gpu.front; b != noBlock; b = s.slab[b].next {
		gpuBytes += s.slab[b].bytes
	}
	for b := s.cpu.front; b != noBlock; b = s.slab[b].next {
		cpuBytes += s.slab[b].bytes
	}
	return gpuBytes, cpuBytes
}

// PrefixRoot returns the leading segment of a hierarchical PrefixKey — the
// granularity KV-affinity routing scores at.
func PrefixRoot(key string) string {
	for i := 0; i < len(key); i++ {
		if key[i] == '/' {
			return key[:i]
		}
	}
	return key
}

// RootResidency is one (leading segment, resident bytes) pair from
// AppendResidency.
type RootResidency struct {
	Root  string
	Bytes int64
}

// AppendResidency appends the store's per-root resident bytes to dst,
// sorted by root for determinism, and returns the extended slice.
func (s *TieredStore) AppendResidency(dst []RootResidency) []RootResidency {
	start := len(dst)
	for id, bytes := range s.rootBytes {
		if bytes > 0 {
			dst = append(dst, RootResidency{Root: s.roots[id], Bytes: bytes})
		}
	}
	tail := dst[start:]
	// Insertion sort: residency tables are small (a handful of templates
	// and live sessions), and this avoids a sort.Slice closure allocation.
	for i := 1; i < len(tail); i++ {
		for j := i; j > 0 && tail[j].Root < tail[j-1].Root; j-- {
			tail[j], tail[j-1] = tail[j-1], tail[j]
		}
	}
	return dst
}

// fnv64a constants (hash/fnv is not used directly: the hot lookup path
// hashes incrementally without allocating a hasher).
const (
	fnvOffset64 = 0xcbf29ce484222325
	fnvPrime64  = 0x100000001b3
)

//slinfer:hotpath
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

//slinfer:hotpath
func fnvByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

// chainStep advances the block-hash chain: block i's identity folds in the
// previous block's hash, the owning key-segment path, and the position, so
// equal leading (segment, position) sequences — and nothing else — collide.
//
//slinfer:hotpath
func chainStep(prev uint64, owner string, idx int) uint64 {
	h := fnvString(prev^fnvOffset64, owner)
	h = fnvByte(h, '#')
	for v := uint64(idx); ; v >>= 7 {
		if v < 0x80 {
			h = fnvByte(h, byte(v))
			break
		}
		h = fnvByte(h, byte(v&0x7f)|0x80)
	}
	return h
}

// segmentSpan returns the PrefixKey prefix owning token index tok and the
// first token index it no longer owns (math.MaxInt when it owns the rest):
// segments are '/'-separated, a "@N" suffix pins a segment to its first N
// tokens, and the final segment owns the remainder. Every token in
// [tok, end) has the same owner, so a walk over a key's blocks reparses
// only when it crosses end. The owner is a slice of key — no allocation.
//
//slinfer:hotpath
func segmentSpan(key string, tok int) (owner string, end int) {
	start, covered := 0, 0
	for start < len(key) {
		end := start
		tokens := -1 // -1: open-ended (owns the rest)
		for end < len(key) && key[end] != '/' {
			if key[end] == '@' {
				tokens = 0
				for j := end + 1; j < len(key) && key[j] != '/'; j++ {
					if d := key[j]; d >= '0' && d <= '9' {
						tokens = tokens*10 + int(d-'0')
					}
				}
			}
			end++
		}
		if tokens < 0 || end >= len(key) {
			return key[:end], math.MaxInt
		}
		if tok < covered+tokens {
			return key[:end], covered + tokens
		}
		covered += tokens
		start = end + 1
	}
	return key, math.MaxInt
}

// indexHome is the home slot of a mixed hash's tag.
//
//slinfer:hotpath
func (s *TieredStore) indexHome(tag uint64) int {
	return int(tag >> (s.indexShift - 32))
}

// find returns the slab index of the block with chain hash h, or noBlock.
//
//slinfer:hotpath
func (s *TieredStore) find(h uint64) int32 {
	if s.indexUsed == 0 {
		return noBlock
	}
	tag := (h * fibMix) >> 32
	mask := len(s.index) - 1
	for i := s.indexHome(tag); ; i = (i + 1) & mask {
		e := s.index[i]
		if e == 0 {
			return noBlock
		}
		if uint64(e)>>32 == tag {
			if b := int32(uint32(e)) - 1; s.slab[b].hash == h {
				return b
			}
		}
	}
}

// indexPut records block b under hash h, which must be absent, doubling
// the table first if it would pass half full.
//
//slinfer:hotpath
func (s *TieredStore) indexPut(h uint64, b int32) {
	if 2*(s.indexUsed+1) > len(s.index) {
		s.growIndex(2 * len(s.index))
	}
	s.place(indexSlot((h*fibMix)>>32<<32 | uint64(b+1)))
}

// place stores e in the first empty slot of its probe run.
//
//slinfer:hotpath
func (s *TieredStore) place(e indexSlot) {
	mask := len(s.index) - 1
	i := s.indexHome(uint64(e) >> 32)
	for s.index[i] != 0 {
		i = (i + 1) & mask
	}
	s.index[i] = e
	s.indexUsed++
}

// indexDel removes block b (chain hash h) from the index, shifting later
// entries of its probe run back so every run stays gap-free.
//
//slinfer:hotpath
func (s *TieredStore) indexDel(h uint64, b int32) {
	mask := len(s.index) - 1
	i := s.indexHome((h * fibMix) >> 32)
	for uint32(s.index[i]) != uint32(b+1) {
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; s.index[j] != 0; j = (j + 1) & mask {
		// Entry j may fill the gap at i unless its home lies cyclically
		// in (i, j], where the gap is not on its probe path.
		k := s.indexHome(uint64(s.index[j]) >> 32)
		if (i < j && (k <= i || k > j)) || (j < i && k <= i && k > j) {
			s.index[i] = s.index[j]
			i = j
		}
	}
	s.index[i] = 0
	s.indexUsed--
}

// growIndex rehashes the index into a table of at least slots slots (a
// power of two, minimum 16).
func (s *TieredStore) growIndex(slots int) {
	size, shift := 16, uint8(60)
	for size < slots {
		size, shift = size*2, shift-1
	}
	old := s.index
	s.index, s.indexShift, s.indexUsed = make([]indexSlot, size), shift, 0
	for _, e := range old {
		if e != 0 {
			s.place(e)
		}
	}
}

// reserve sizes the slab and index for a full store of blockBytes blocks,
// capped at maxPresizeBlocks.
func (s *TieredStore) reserve(blockBytes int64) {
	n := min(s.cfg.GPUBytes/blockBytes+s.cfg.CPUBytes/blockBytes, maxPresizeBlocks)
	if int(n) > cap(s.slab) {
		s.slab = make([]tierBlock, len(s.slab), n)
	}
	if 2*int(n) > len(s.index) {
		s.growIndex(2 * int(n))
	}
}

// internRoot returns root's id, registering it on first sight.
func (s *TieredStore) internRoot(root string) int32 {
	if id, ok := s.rootIDs[root]; ok {
		return id
	}
	if s.rootIDs == nil {
		s.rootIDs = make(map[string]int32)
	}
	id := int32(len(s.roots))
	s.rootIDs[root] = id
	s.roots = append(s.roots, root)
	s.rootBytes = append(s.rootBytes, 0)
	return id
}

// Lookup walks the leading full blocks of a request's prompt through the
// index and returns the cached token count plus the host-to-device transfer
// cost for blocks served from the CPU tier (promoted back to GPU as a side
// effect). Partial trailing blocks never hit. A zero hit on a non-empty key
// still counts a lookup, feeding the miss side of the hit-rate metric.
//
//slinfer:hotpath
func (s *TieredStore) Lookup(modelName, key string, inputTokens int, kvBytesPerToken int64) (hitTokens int, xfer sim.Duration) {
	if s == nil || key == "" || inputTokens <= 0 || kvBytesPerToken <= 0 {
		return 0, 0
	}
	bt := s.cfg.BlockTokens
	nBlocks := inputTokens / bt
	h := fnvString(fnvOffset64, modelName)
	owner, end := "", 0
	var promoted int64
	for i := 0; i < nBlocks; i++ {
		if tok := i * bt; tok >= end {
			owner, end = segmentSpan(key, tok)
		}
		h = chainStep(h, owner, i)
		b := s.find(h)
		if b == noBlock {
			break
		}
		if s.slab[b].tier == tierCPU {
			promoted += s.slab[b].bytes
			s.promote(b)
		} else {
			s.gpu.moveToFront(s.slab, b)
		}
		hitTokens += bt
	}
	hitBytes := int64(hitTokens) * kvBytesPerToken
	s.Ledger.Lookups++
	if hitTokens > 0 {
		s.Ledger.Hits++
	}
	s.Ledger.HitBytes += hitBytes
	s.Ledger.MissBytes += int64(inputTokens-hitTokens) * kvBytesPerToken
	s.Ledger.CPUHitBytes += promoted
	return hitTokens, PromoteTime(promoted)
}

// promote moves CPU-tier block b back into the GPU tier, spilling the GPU
// tail to make room. If the block cannot fit even after spilling everything
// else, it stays resident in the CPU tier (served over PCIe in place).
//
//slinfer:hotpath
func (s *TieredStore) promote(b int32) {
	bytes := s.slab[b].bytes
	if bytes > s.cfg.GPUBytes {
		s.cpu.moveToFront(s.slab, b)
		return
	}
	s.cpu.remove(s.slab, b)
	s.Ledger.CPUBytes -= bytes
	s.makeGPURoom(bytes)
	s.slab[b].tier = tierGPU
	s.gpu.pushFront(s.slab, b)
	s.Ledger.GPUBytes += bytes
	if s.Trace != nil {
		s.Trace.TierPromoted(bytes)
	}
}

// makeGPURoom spills LRU GPU blocks to the CPU tier (or frees them when the
// host tier is disabled or full) until need bytes fit.
//
//slinfer:hotpath
func (s *TieredStore) makeGPURoom(need int64) {
	for s.gpu.bytes+need > s.cfg.GPUBytes && s.gpu.back != noBlock {
		victim := s.gpu.back
		bytes := s.slab[victim].bytes
		s.gpu.remove(s.slab, victim)
		s.Ledger.GPUBytes -= bytes
		if s.cfg.CPUBytes > 0 && bytes <= s.cfg.CPUBytes {
			s.makeCPURoom(bytes)
			s.slab[victim].tier = tierCPU
			s.cpu.pushFront(s.slab, victim)
			s.Ledger.CPUBytes += bytes
			s.Ledger.Spills++
			s.Ledger.SpillBytes += bytes
			if s.Trace != nil {
				s.Trace.TierSpilled(bytes)
			}
		} else {
			s.freeBlock(victim)
		}
	}
}

// makeCPURoom frees LRU CPU blocks until need bytes fit in the host tier.
//
//slinfer:hotpath
func (s *TieredStore) makeCPURoom(need int64) {
	for s.cpu.bytes+need > s.cfg.CPUBytes && s.cpu.back != noBlock {
		victim := s.cpu.back
		s.cpu.remove(s.slab, victim)
		s.Ledger.CPUBytes -= s.slab[victim].bytes
		s.freeBlock(victim)
	}
}

// freeBlock evicts block b out of the store entirely and recycles its slot.
//
//slinfer:hotpath
func (s *TieredStore) freeBlock(b int32) {
	blk := &s.slab[b]
	s.Ledger.FreedBytes += blk.bytes
	s.Ledger.Evictions++
	if s.Trace != nil {
		s.Trace.TierEvicted(blk.bytes)
	}
	s.rootBytes[blk.root] -= blk.bytes
	s.indexDel(blk.hash, b)
	blk.next = s.free
	s.free = b
}

// Insert demotes a completed request's context into the store: every full
// leading block (prompt plus generated tokens — the whole KV state resident
// at completion) is admitted to the GPU tier or refreshed if already
// present. Returns the device-to-host spill cost incurred making room, for
// callers that book background copy overhead.
func (s *TieredStore) Insert(modelName, key string, contextTokens int, kvBytesPerToken int64) sim.Duration {
	if s == nil || key == "" || contextTokens <= 0 || kvBytesPerToken <= 0 {
		return 0
	}
	bt := s.cfg.BlockTokens
	nBlocks := contextTokens / bt
	blockBytes := int64(bt) * kvBytesPerToken
	if len(s.index) == 0 {
		s.reserve(blockBytes)
	}
	root := s.internRoot(PrefixRoot(key))
	h := fnvString(fnvOffset64, modelName)
	owner, end := "", 0
	spilledBefore := s.Ledger.SpillBytes
	for i := 0; i < nBlocks; i++ {
		if tok := i * bt; tok >= end {
			owner, end = segmentSpan(key, tok)
		}
		h = chainStep(h, owner, i)
		if b := s.find(h); b != noBlock {
			// Refresh recency in place; resident tier is untouched.
			if s.slab[b].tier == tierGPU {
				s.gpu.moveToFront(s.slab, b)
			} else {
				s.cpu.moveToFront(s.slab, b)
			}
			continue
		}
		if blockBytes > s.cfg.GPUBytes {
			continue // a single block larger than the tier can never fit
		}
		s.makeGPURoom(blockBytes)
		b := s.free
		if b != noBlock {
			s.free = s.slab[b].next
		} else {
			b = int32(len(s.slab))
			s.slab = append(s.slab, tierBlock{})
		}
		s.slab[b] = tierBlock{hash: h, bytes: blockBytes, root: root, tier: tierGPU}
		s.indexPut(h, b)
		s.gpu.pushFront(s.slab, b)
		s.Ledger.AllocatedBytes += blockBytes
		s.Ledger.GPUBytes += blockBytes
		s.Ledger.Inserts++
		s.rootBytes[root] += blockBytes
	}
	return SpillTime(s.Ledger.SpillBytes - spilledBefore)
}
