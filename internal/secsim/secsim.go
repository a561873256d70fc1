// Package secsim contains the timing-model security engines that attach to
// the simulated memory system. An engine decides, for every data access,
// page migration, and page eviction, which security-metadata transfers hit
// the memories (counter blocks, MAC sectors, BMT nodes) and when the
// security processing completes. Three engines implement the paper's
// compared configurations: None (no protection), Baseline (conventional
// location-coupled metadata), and Salus (the unified relocation-friendly
// model).
//
// Metadata is organised per memory partition with channel-local addressing,
// following PSSM: the metadata of a data chunk lives in the same channel as
// the chunk, which is why a page interleaved over N channels has its
// metadata spread over those same N channels.
package secsim

import (
	"github.com/salus-sim/salus/internal/cache"
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// HomeAddr and DevAddr alias the canonical address-domain types so engine
// signatures stay readable; see securemem's addr.go for the convention.
type (
	HomeAddr = securemem.HomeAddr
	DevAddr  = securemem.DevAddr
)

// Engine is the security model attached to the memory system.
type Engine interface {
	// Name identifies the model in reports.
	Name() string
	// OnRead runs the read-side security work for a device-resident sector
	// and calls done when the data may be released to the core.
	OnRead(homeAddr HomeAddr, devAddr DevAddr, done func())
	// OnWrite runs the write-side security work (counter bump, MAC
	// generation, tree update) for a device-resident sector.
	OnWrite(homeAddr HomeAddr, devAddr DevAddr, done func())
	// OnMigrateIn runs the security work of copying homePage into frame.
	// Data movement itself is the page cache's job.
	OnMigrateIn(homePage, frame int, done func())
	// OnChunkFill runs the security work of a partial (chunk-granular)
	// fill under predictive migration; whole-page fills use OnMigrateIn.
	OnChunkFill(homePage, frame, chunk int, done func())
	// OnEvict runs the security work of evicting a frame. dirty and
	// present are per-chunk bitmasks maintained by the page cache: present
	// is every chunk actually filled into the frame (all of them under
	// whole-page migration), dirty the subset written.
	OnEvict(homePage, frame int, dirty, present uint64, done func())
	// FineGrainedWriteback reports whether eviction data traffic is
	// limited to dirty chunks (Salus dirty tracking) or whole pages.
	FineGrainedWriteback() bool
}

// Ctx bundles the handles every engine needs.
type Ctx struct {
	Eng    *sim.Engine
	Cfg    config.Config
	Device *dram.Memory
	CXL    *cxlmem.Memory
	Ops    *stats.Ops
}

// chanLocal converts a device address to (channel, channel-local offset):
// consecutive chunks go to consecutive channels, and each channel's chunks
// are dense in its local metadata address space.
func (c *Ctx) chanLocal(devAddr DevAddr) (channel int, local uint64) {
	cs := uint64(c.Cfg.Geometry.ChunkSize)
	n := uint64(c.Cfg.Memory.DeviceChannels)
	chunk := uint64(devAddr) / cs
	channel = int(chunk % n)
	local = (chunk/n)*cs + uint64(devAddr)%cs
	return channel, local
}

// metaCache is a metadata cache in front of one memory (a device partition
// or the CXL controller): lookups that miss fetch a 32-byte sector from the
// backing memory, and dirty victims write back.
type metaCache struct {
	ctx     *Ctx
	c       *cache.Cache
	class   stats.Class
	channel int // device channel, or -1 for the CXL side
}

func newMetaCache(ctx *Ctx, sizeKB, ways, mshrs, channel int, class stats.Class) *metaCache {
	return &metaCache{
		ctx: ctx,
		c: cache.New(cache.Config{
			SizeBytes:  sizeKB * 1024,
			BlockSize:  32, // metadata accessed at sector granularity
			SectorSize: 32,
			Ways:       ways,
			MSHRs:      mshrs,
		}),
		class:   class,
		channel: channel,
	}
}

// backingAccess issues a 32-byte transfer to the backing memory.
func (m *metaCache) backingAccess(done func()) {
	if m.channel >= 0 {
		m.ctx.Device.AccessChannel(m.channel, 32, m.class, done)
	} else {
		m.ctx.CXL.Access(32, m.class, done)
	}
}

// writebackVictim spills a dirty victim to the backing memory.
func (m *metaCache) writebackVictim(v *cache.Victim) {
	if v != nil && v.Dirty != 0 {
		m.backingAccess(nil)
	}
}

// Fetch ensures addr's 32-byte metadata sector is cached, calling
// done(hit) when it is available; hit reports whether the sector was
// already cached. extra is the caller-managed tag stored with the line.
func (m *metaCache) Fetch(addr uint64, extra uint64, done func(hit bool)) {
	block := m.c.BlockAddr(cache.Addr(addr))
	r := m.c.Lookup(block, 1)
	if r.Miss == 0 {
		done(true)
		return
	}
	switch m.c.AllocateMSHR(block, 1, func(cache.SectorMask) { done(false) }) {
	case cache.MSHRNew:
		m.backingAccess(func() {
			m.writebackVictim(m.c.CompleteMSHR(block, extra))
		})
	case cache.MSHRMerged:
		// done will fire with the existing fill.
	case cache.MSHRFull:
		// Structural stall: retry after a short backoff.
		m.ctx.Eng.After(8, func() { m.Fetch(addr, extra, done) })
	}
}

// MarkDirty marks addr's cached sector dirty (after a Fetch).
func (m *metaCache) MarkDirty(addr uint64) {
	m.c.MarkDirty(m.c.BlockAddr(cache.Addr(addr)), 1)
}

// Install fills addr's sector directly (metadata produced on-chip, e.g. a
// freshly reconstructed counter group), marking it dirty.
func (m *metaCache) Install(addr, extra uint64) {
	block := m.c.BlockAddr(cache.Addr(addr))
	m.writebackVictim(m.c.Fill(block, 1, extra))
	m.c.MarkDirty(block, 1)
}

// Invalidate drops addr's sector without writeback (used when a page's
// device-side metadata becomes meaningless after eviction).
func (m *metaCache) Invalidate(addr uint64) {
	m.c.Invalidate(m.c.BlockAddr(cache.Addr(addr)))
}

// Stats exposes the underlying cache counters.
func (m *metaCache) Stats() cache.Stats { return m.c.Stats() }

// maxBMTLevels bounds a tree's interior levels: an 8-ary tree over any
// int leaf count is at most ceil(63/3) levels deep.
const maxBMTLevels = 21

// bmtRegion models one integrity tree's timing: a walk from a leaf's
// parent toward the root through a BMT node cache, reading missed nodes
// from the backing memory. A cached node is trusted, so the walk stops at
// the first hit; the root is always in the TCB.
type bmtRegion struct {
	cache      *metaCache
	levelBase  []uint64 // synthetic node base address per level
	levelNodes []int
}

// newBMTRegion sizes a tree over nLeaves leaf blocks. Addresses are
// synthetic, unique within the cache's index space.
func newBMTRegion(cache *metaCache, nLeaves int, addrBase uint64) *bmtRegion {
	r := &bmtRegion{cache: cache}
	n := nLeaves
	base := addrBase
	for n > 1 {
		n = (n + 7) / 8
		r.levelBase = append(r.levelBase, base)
		r.levelNodes = append(r.levelNodes, n)
		base += uint64(n) * 32
	}
	return r
}

// Levels returns the number of interior levels below the root.
func (r *bmtRegion) Levels() int { return len(r.levelNodes) }

// walk traverses from the leaf's parent upward. Verification ends at the
// first *cached* ancestor (a trusted node); updates continue to the root
// so every ancestor is refreshed and marked dirty. The path nodes below
// the trusted ancestor are fetched in parallel — the verification engine
// is pipelined, so a cold walk costs one memory round trip, not one per
// level.
func (r *bmtRegion) walk(leaf int, dirty bool, done func()) {
	if len(r.levelNodes) == 0 {
		done()
		return
	}
	var path [maxBMTLevels]uint64
	addrs := path[:0]
	idx := leaf
	for level := 0; level < len(r.levelNodes); level++ {
		idx /= 8
		addr := r.levelBase[level] + uint64(idx)*32
		addrs = append(addrs, addr)
		if !dirty {
			if _, _, _, present := r.cache.c.Peek(cache.Addr(addr)); present {
				break // trusted cached ancestor ends the verification
			}
		}
	}
	j := join(len(addrs), done)
	for _, addr := range addrs {
		a := addr
		r.cache.Fetch(a, 0, func(bool) {
			if dirty {
				r.cache.MarkDirty(a)
			}
			j()
		})
	}
}

// Verify runs a read-side freshness check for the counter block at leaf.
func (r *bmtRegion) Verify(leaf int, done func()) { r.walk(leaf, false, done) }

// Update runs a write-side path refresh for the counter block at leaf.
func (r *bmtRegion) Update(leaf int, done func()) { r.walk(leaf, true, done) }

// appendLeaf adds leaf to an ascending list of distinct tree leaves. The
// eviction paths visit a page's chunks in ascending address order, so the
// leaves arrive sorted and a repeat can only equal the last entry; the
// ordered list then issues the tree updates in a fixed order.
func appendLeaf(leaves []int, leaf int) []int {
	if n := len(leaves); n > 0 && leaves[n-1] == leaf {
		return leaves
	}
	return append(leaves, leaf)
}

// join returns a callback that fires fn after being called n times. n == 0
// fires immediately.
func join(n int, fn func()) func() {
	if n == 0 {
		fn()
		return func() {}
	}
	remaining := n
	return func() {
		remaining--
		if remaining == 0 {
			fn()
		}
	}
}

// HitRates summarises a metadata cache's sector hit rate (0..1); used for
// the per-run cache report.
func hitRate(st cache.Stats) float64 {
	total := st.SectorHits + st.SectorMisses
	if total == 0 {
		return 0
	}
	return float64(st.SectorHits) / float64(total)
}
