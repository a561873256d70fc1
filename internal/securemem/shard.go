package securemem

import (
	"sync"
	"sync/atomic"

	"github.com/salus-sim/salus/internal/security/bmt"
	"github.com/salus-sim/salus/internal/security/counters"
)

// Page/frame sharding. A System is partitioned into nShards independent
// page groups: home page p and device frame f belong to shard p%nShards
// and f%nShards, and a page only ever occupies a frame of its own shard
// (migrateIn scans same-shard frames exclusively). Everything a
// sector-granular access touches — the frame, the page-table entry, the
// page's counter and MAC metadata, its dirty bits — is therefore owned by
// exactly one shard, and accesses to different shards can run
// concurrently once the caller (securemem.Concurrent) holds the
// respective shard locks. So is the per-shard shardState: the device
// integrity subtree over the shard's frames, the LRU clock that orders
// them, and the per-access counters. A resident-sector Salus access
// writes nothing outside its shard.
//
// The few pieces of state that cross shard boundaries are synchronised
// here or at their own layer:
//
//   - the home-tier integrity trees (bmt.Tree carries its own mutex),
//   - the crypto engine (stateless per call; scratch comes from a pool),
//   - the fault injector, link model, and sim clock (locks.hw),
//   - the dirty-writeback queue (locks.wbQueueMu, held only inside the
//     wbq* helpers and never across a home-tier call),
//   - the remaining OpStats counters, which count migrations, evictions
//     and faults rather than accesses (atomic bump/bumpN/peakMax on
//     plain uint64s), and
//   - the lazily armed split-counter state (locks.split + splitArmed).
//
// A System built by New has nShards == 1 (fully unsharded); the
// single-threaded behavior, scan orders, and therefore every byte of
// ciphertext are identical to the pre-sharding implementation.
// NewConcurrent calls configureSharding before any page is resident.

// DefaultShards is the shard count NewConcurrent selects when the Config
// does not name one. Eight covers typical GOMAXPROCS parallelism without
// fragmenting small device tiers.
const DefaultShards = 8

// maxShards bounds the shard count so multi-shard lock acquisition can
// track the held set in one machine word.
const maxShards = 64

// cacheLine is the unit shard-private state is padded to, so that two
// shards written by two CPUs never share a cache line.
const cacheLine = 64

// shardState is the mutable state every access to one shard writes
// besides its frames and pages. The caller's shard lock guards it; the
// counters still go through the atomic bump helpers, like every OpStats
// counter.
type shardState struct {
	// devTree is the shard's device integrity subtree: one leaf per
	// counter sector of each frame the shard owns (see devLeaf). The
	// model only updates it; device counter groups are not verified on
	// read (DESIGN.md §6).
	devTree *bmt.Tree
	// lruClock orders the shard's frames for victimFrame, which only
	// ever compares frames of one shard.
	lruClock uint64

	// Per-access counters, summed into OpStats by Stats.
	reads, writes, macVerifies, bmtUpdates uint64

	_ [cacheLine - 6*8]byte
}

// tick advances the shard's LRU clock and returns the new stamp.
func (st *shardState) tick() uint64 {
	st.lruClock++
	return st.lruClock
}

// sysLocks groups the System-internal mutexes that guard cross-shard
// state. It carries no data of its own; the state each mutex guards is
// documented on the System fields.
type sysLocks struct {
	// hw serialises the shared "hardware" models: the fault injector,
	// the link model, and the sim clock they advance.
	hw sync.Mutex
	// wbQueueMu guards the dirty-writeback queue slice. It is held only
	// inside the wbq* helpers — never across a home-tier call — so a
	// drain in one shard cannot deadlock or stall accesses in another.
	wbQueueMu sync.Mutex
	// split guards the lazy allocation of the split-counter state
	// (ensureSplitState); splitArmed publishes the result.
	split sync.Mutex
}

// configureSharding partitions the system into n shards. It must run
// before any page becomes resident (NewConcurrent calls it right after
// New). Non-positive n selects DefaultShards; the count is clamped so
// every shard owns at least one device frame and at most maxShards locks
// are ever needed.
func (s *System) configureSharding(n int) {
	if n <= 0 {
		n = DefaultShards
	}
	if n > s.cfg.DevicePages {
		n = s.cfg.DevicePages
	}
	if n > s.cfg.TotalPages {
		n = s.cfg.TotalPages
	}
	if n > maxShards {
		n = maxShards
	}
	if n < 1 {
		n = 1
	}
	if n == s.nShards {
		return
	}
	s.nShards = n
	s.shards = make([]shardState, n)
	s.buildDevTrees()
}

// buildDevTrees gives every shard a fresh device subtree over its frames
// and zeroes the device counter groups the subtrees describe. It runs
// only while no page is resident — at construction, in configureSharding
// and in ReKey — when every group is dead: a page's groups are refilled
// from the home tier on first access after it migrates in.
func (s *System) buildDevTrees() {
	if s.cfg.Model != ModelSalus {
		return
	}
	clear(s.devGroups)
	lpf := s.devLeavesPerFrame()
	for sh := range s.shards {
		frames := (len(s.frames) - sh + s.nShards - 1) / s.nShards
		t, err := bmt.New(s.eng, frames*lpf)
		if err != nil {
			// Unreachable: the engine is set and every shard owns a frame.
			panic(err)
		}
		// No trust cache: device subtrees are updated, never verified,
		// and the cache only shortens verification walks.
		s.shards[sh].devTree = t
	}
}

// devLeavesPerFrame is the number of device-subtree leaves (counter
// sectors) one frame's counter groups fill.
func (s *System) devLeavesPerFrame() int {
	return (s.geo.ChunksPerPage() + counters.GroupsPerSector - 1) / counters.GroupsPerSector
}

// devLeaf returns the subtree leaf holding chunk cip of frame fi: frame
// fi is frame fi/nShards of its shard, and each frame owns
// devLeavesPerFrame consecutive leaves, so a leaf never covers two
// frames. With one shard this is the device-wide layout gi/GroupsPerSector
// whenever GroupsPerSector divides ChunksPerPage.
func (s *System) devLeaf(fi, cip int) int {
	return fi/s.nShards*s.devLeavesPerFrame() + cip/counters.GroupsPerSector
}

// Shards returns the page-partition count (1 when unsharded).
func (s *System) Shards() int { return s.nShards }

// pageShard returns the shard owning home page p.
func (s *System) pageShard(p int) int { return p % s.nShards }

// pageState returns the shard state of home page p.
func (s *System) pageState(p int) *shardState { return &s.shards[p%s.nShards] }

// frameState returns the shard state of device frame fi; a resident
// page's frame is in the page's own shard.
func (s *System) frameState(fi int) *shardState { return &s.shards[fi%s.nShards] }

// chunkState returns the shard state of the page holding home chunk c.
func (s *System) chunkState(c int) *shardState {
	return s.pageState(c / s.geo.ChunksPerPage())
}

// Atomic helpers for the OpStats counters. OpStats keeps plain uint64
// fields (the by-value copy Stats returns must stay copyable), so all
// writers funnel through these.

// bump atomically increments a stats counter.
func bump(p *uint64) { atomic.AddUint64(p, 1) }

// bumpN atomically adds n to a stats counter.
func bumpN(p *uint64, n uint64) { atomic.AddUint64(p, n) }

// peakMax atomically raises a high-water mark to v.
func peakMax(p *uint64, v uint64) {
	for {
		cur := atomic.LoadUint64(p)
		if v <= cur || atomic.CompareAndSwapUint64(p, cur, v) {
			return
		}
	}
}
