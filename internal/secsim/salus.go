package secsim

import (
	"github.com/salus-sim/salus/internal/cache"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Salus is the paper's unified, relocation-friendly security engine:
//
//   - All metadata is indexed by the home (CXL) address; migration moves
//     ciphertext verbatim with zero security operations (§IV-A).
//   - Device-side counters use the interleaving-friendly layout: one
//     32-byte sector covers two 256-byte chunks (§IV-A1).
//   - CXL-side counters are collapsed majors: one 32-byte sector covers
//     eight chunks (2 KiB), and the compact CXL BMT is built over them
//     (§IV-A2). Majors travel embedded in MAC sectors, so counter blocks
//     never cross the link.
//   - MAC sectors are fetched from CXL only on first access to their data
//     block while the page is resident (§IV-A3).
//   - Eviction writes back only dirty chunks, with one collapse
//     re-encryption per dirty chunk (§IV-A4).
type Salus struct {
	ctx *Ctx

	// Feature toggles for the ablation study. The full design has all
	// enabled; disabling one falls back to the baseline-like behaviour for
	// that mechanism only.
	CollapseCounters bool // majors embedded in MAC sectors (no counter traffic on link)
	FetchOnAccess    bool // lazy MAC fetch instead of up-front page metadata
	DirtyTracking    bool // fine-grained dirty writeback

	// Per device channel.
	ctrCaches []*metaCache
	macCaches []*metaCache
	devTrees  []*bmtRegion

	// CXL controller side: collapsed counter sectors + compact tree.
	cxlCol  *metaCache
	cxlTree *bmtRegion

	// Residency-scoped lazy-fetch state, indexed by frame.
	macIn []uint64 // per-block "MAC sector present on device side" mask
	ctrIn []uint64 // per-chunk "counter group initialised" mask
}

// Salus metadata coverage constants: one interleaving-friendly counter
// sector covers two chunks (512 B); one collapsed sector covers eight
// chunks (2 KiB).
const (
	ifCtrCoverage     = 512
	collapsedCoverage = 2048
)

// NewSalus builds the Salus engine with every mechanism enabled. devBytes
// is the device-tier capacity; totalBytes the home-space size; frames the
// device frame count.
func NewSalus(ctx *Ctx, devBytes, totalBytes uint64, frames int) *Salus {
	s := &Salus{
		ctx:              ctx,
		CollapseCounters: true,
		FetchOnAccess:    true,
		DirtyTracking:    true,
		macIn:            make([]uint64, frames),
		ctrIn:            make([]uint64, frames),
	}
	ch := ctx.Cfg.Memory.DeviceChannels
	sec := ctx.Cfg.Security
	perChan := devBytes / uint64(ch)
	for c := 0; c < ch; c++ {
		ctr := newMetaCache(ctx, sec.CounterCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, c, stats.Counter)
		mac := newMetaCache(ctx, sec.MACCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, c, stats.MAC)
		bmtc := newMetaCache(ctx, sec.BMTCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, c, stats.BMT)
		s.ctrCaches = append(s.ctrCaches, ctr)
		s.macCaches = append(s.macCaches, mac)
		leaves := int(perChan / ifCtrCoverage)
		if leaves < 1 {
			leaves = 1
		}
		s.devTrees = append(s.devTrees, newBMTRegion(bmtc, leaves, 1<<40))
	}
	s.cxlCol = newMetaCache(ctx, sec.CounterCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, -1, stats.Counter)
	cxlBMTCache := newMetaCache(ctx, sec.BMTCacheKB, sec.MetaCacheWays, sec.MetaCacheMSHRs, -1, stats.BMT)
	leaves := int(totalBytes / collapsedCoverage)
	if leaves < 1 {
		leaves = 1
	}
	s.cxlTree = newBMTRegion(cxlBMTCache, leaves, 1<<40)
	return s
}

// Name implements Engine.
func (s *Salus) Name() string { return "salus" }

// FineGrainedWriteback implements Engine.
func (s *Salus) FineGrainedWriteback() bool { return s.DirtyTracking }

// devMeta computes device-side metadata addresses for a device address.
func (s *Salus) devMeta(devAddr DevAddr) (ch int, ctrAddr uint64, ctrLeaf int, macAddr uint64) {
	ch, local := s.ctx.chanLocal(devAddr)
	ctrLeaf = int(local / ifCtrCoverage)
	ctrAddr = uint64(ctrLeaf) * 32
	macAddr = local / macCoverage * 32
	return ch, ctrAddr, ctrLeaf, macAddr
}

func (s *Salus) frameGeom(devAddr DevAddr) (frame, chunkInPage, blockInPage int) {
	g := s.ctx.Cfg.Geometry
	frame = int(devAddr) / g.PageSize
	off := int(devAddr) % g.PageSize
	return frame, off / g.ChunkSize, off / g.BlockSize
}

// ensureChunkMeta makes the counter group and the accessed block's MAC
// sector available on the device side, fetching the MAC sector (with its
// embedded major) from CXL on first access. It calls done when both are
// available.
func (s *Salus) ensureChunkMeta(homeAddr HomeAddr, devAddr DevAddr, write bool, done func()) {
	frame, cip, bip := s.frameGeom(devAddr)
	ch, ctrAddr, ctrLeaf, macAddr := s.devMeta(devAddr)

	needMAC := s.macIn[frame]&(1<<uint(bip)) == 0
	needCtr := s.ctrIn[frame]&(1<<uint(cip)) == 0

	if needMAC || needCtr {
		// Fetch-on-access: one 32-byte MAC sector crosses the link; the
		// chunk's major is embedded in it, so no counter traffic occurs.
		s.ctx.Ops.MACFetchesLazy++
		s.macIn[frame] |= 1 << uint(bip)
		first := needCtr
		s.ctrIn[frame] |= 1 << uint(cip)
		s.ctx.CXL.Access(32, stats.MAC, func() {
			// Install the MAC sector (dirty only when this access writes)
			// and, on the chunk's first touch, the reconstructed counter
			// group, then refresh the device tree path over the counters.
			s.macCaches[ch].Install(macAddr, uint64(frame))
			if first {
				s.ctrCaches[ch].Install(ctrAddr, uint64(frame))
				s.ctx.Ops.BMTUpdates++
				s.devTrees[ch].Update(ctrLeaf, done)
				return
			}
			done()
		})
		return
	}

	// Steady state: both metadata come from the device-side hierarchy.
	j := join(2, done)
	s.ctrCaches[ch].Fetch(ctrAddr, uint64(frame), func(hit bool) {
		if write {
			s.ctrCaches[ch].MarkDirty(ctrAddr)
		}
		if hit {
			j()
			return
		}
		s.ctx.Ops.BMTVerifies++
		s.devTrees[ch].Verify(ctrLeaf, j)
	})
	s.macCaches[ch].Fetch(macAddr, uint64(frame), func(bool) {
		if write {
			s.macCaches[ch].MarkDirty(macAddr)
		}
		j()
	})
}

// OnRead implements Engine.
func (s *Salus) OnRead(homeAddr HomeAddr, devAddr DevAddr, done func()) {
	s.ctx.Ops.MACVerifies++
	s.ensureChunkMeta(homeAddr, devAddr, false, func() {
		s.ctx.Eng.After(sim.Cycle(s.ctx.Cfg.Security.MACLatency), done)
	})
}

// OnWrite implements Engine: bump the chunk's minor counter, refresh the
// device tree path, and produce the new MAC.
func (s *Salus) OnWrite(homeAddr HomeAddr, devAddr DevAddr, done func()) {
	s.ctx.Ops.Encryptions++
	s.ctx.Ops.MACComputes++
	ch, ctrAddr, ctrLeaf, _ := s.devMeta(devAddr)
	s.ensureChunkMeta(homeAddr, devAddr, true, func() {
		s.ctrCaches[ch].MarkDirty(ctrAddr)
		s.ctx.Ops.BMTUpdates++
		s.devTrees[ch].Update(ctrLeaf, func() {})
		done()
	})
}

// OnMigrateIn implements Engine: under the unified model the ciphertext
// moves verbatim and metadata follows lazily, so migration itself performs
// no security work at all. Only the residency-scoped lazy state resets.
//
// When FetchOnAccess is disabled (ablation), the page's MAC sectors are
// fetched up-front instead.
func (s *Salus) OnMigrateIn(homePage, frame int, done func()) {
	s.macIn[frame] = 0
	s.ctrIn[frame] = 0
	if s.FetchOnAccess {
		done()
		return
	}
	// Ablation: eager metadata fetch of all MAC sectors (majors embedded).
	g := s.ctx.Cfg.Geometry
	n := g.BlocksPerPage()
	j := join(n, done)
	for i := 0; i < n; i++ {
		bip := i
		s.ctx.Ops.MACFetchesLazy++
		s.ctx.CXL.Access(32, stats.MAC, func() {
			s.macIn[frame] |= 1 << uint(bip)
			j()
		})
	}
	s.ctrIn[frame] = (1 << uint(g.ChunksPerPage())) - 1
	for c := 0; c < g.ChunksPerPage(); c++ {
		devAddr := securemem.FrameAddr(frame, g.PageSize, uint64(c*g.ChunkSize))
		ch, ctrAddr, ctrLeaf, _ := s.devMeta(devAddr)
		s.ctrCaches[ch].Install(ctrAddr, uint64(frame))
		s.devTrees[ch].Update(ctrLeaf, func() {})
	}
}

// OnChunkFill implements Engine: under the unified model a partial fill
// needs no security work either — metadata follows on first access.
func (s *Salus) OnChunkFill(homePage, frame, chunk int, done func()) {
	g := s.ctx.Cfg.Geometry
	s.macIn[frame] &^= blockMaskOfChunk(chunk, g.BlocksPerChunk())
	s.ctrIn[frame] &^= 1 << uint(chunk)
	if s.FetchOnAccess {
		done()
		return
	}
	// Ablation: eager per-chunk MAC fetch.
	n := g.BlocksPerChunk()
	j := join(n, done)
	for b := 0; b < n; b++ {
		bip := chunk*g.BlocksPerChunk() + b
		s.ctx.Ops.MACFetchesLazy++
		s.ctx.CXL.Access(32, stats.MAC, func() {
			s.macIn[frame] |= 1 << uint(bip)
			j()
		})
	}
}

// blockMaskOfChunk returns the per-page block mask covered by a chunk.
func blockMaskOfChunk(chunk, blocksPerChunk int) uint64 {
	mask := uint64(1)<<uint(blocksPerChunk) - 1
	return mask << uint(chunk*blocksPerChunk)
}

// OnEvict implements Engine: each dirty chunk is collapsed (one
// re-encryption pass under the incremented major), its MAC sectors — with
// the embedded major — return to CXL, and the collapsed counter sector and
// compact CXL tree are refreshed. Clean chunks produce no security traffic
// because their home-tier ciphertext and metadata were never invalidated.
func (s *Salus) OnEvict(homePage, frame int, dirty, present uint64, done func()) {
	g := s.ctx.Cfg.Geometry
	if !s.DirtyTracking {
		// Ablation: without dirty tracking every touched chunk is treated
		// as dirty (GPU page tables have no dirty bit).
		dirty = (1 << uint(g.ChunksPerPage())) - 1
	}

	// Invalidate device-side metadata for the departing page: its contents
	// are meaningless once the frame is reused (no writeback needed — the
	// authoritative copies go to CXL below).
	for c := 0; c < g.ChunksPerPage(); c++ {
		devAddr := securemem.FrameAddr(frame, g.PageSize, uint64(c*g.ChunkSize))
		ch, ctrAddr, _, macAddr := s.devMeta(devAddr)
		s.ctrCaches[ch].Invalidate(ctrAddr)
		for blk := 0; blk < g.BlocksPerChunk(); blk++ {
			s.macCaches[ch].Invalidate(macAddr + uint64(blk)*32)
		}
	}
	s.macIn[frame] = 0
	s.ctrIn[frame] = 0

	nDirty := popcount(dirty)
	if nDirty == 0 {
		done()
		return
	}
	s.ctx.Ops.ReEncryptions += uint64(nDirty * g.SectorsPerChunk())
	s.ctx.Ops.Encryptions += uint64(nDirty * g.SectorsPerChunk())
	s.ctx.Ops.Decryptions += uint64(nDirty * g.SectorsPerChunk())

	// Distinct collapsed sectors and tree leaves affected.
	var leafBuf [64]int
	colSectors := leafBuf[:0]
	pageBase := uint64(homePage) * uint64(g.PageSize)
	macWrites := 0
	for c := 0; c < g.ChunksPerPage(); c++ {
		if dirty&(1<<uint(c)) == 0 {
			continue
		}
		macWrites += g.BlocksPerChunk()
		homeChunkAddr := pageBase + uint64(c*g.ChunkSize)
		colSectors = appendLeaf(colSectors, int(homeChunkAddr/collapsedCoverage))
	}

	counterTransfers := 0
	if !s.CollapseCounters {
		// Ablation: without MAC-embedded majors, counter sectors cross the
		// link too (one interleaving-friendly sector per 2 dirty chunks).
		counterTransfers = (nDirty + 1) / 2
	}

	parts := macWrites + len(colSectors) + counterTransfers
	aes := sim.Cycle(s.ctx.Cfg.Security.AESLatency) + sim.Cycle(uint64(g.SectorsPerChunk()))
	j := join(parts, func() { s.ctx.Eng.After(aes, done) })

	// MAC sectors (majors embedded) cross the link.
	for i := 0; i < macWrites; i++ {
		s.ctx.Ops.MACComputes++
		s.ctx.CXL.Access(32, stats.MAC, j)
	}
	for i := 0; i < counterTransfers; i++ {
		s.ctx.CXL.Access(32, stats.Counter, j)
	}
	// Collapsed counter sectors and the compact CXL tree are refreshed.
	for _, leaf := range colSectors {
		s.cxlCol.Install(uint64(leaf)*32, 0)
		s.ctx.Ops.BMTUpdates++
		s.cxlTree.Update(leaf, j)
	}
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// CacheHitRates reports aggregate metadata-cache sector hit rates, keyed
// by cache class and side.
func (s *Salus) CacheHitRates() map[string]float64 {
	out := map[string]float64{}
	agg := func(caches []*metaCache) cache.Stats {
		var sum cache.Stats
		for _, c := range caches {
			st := c.Stats()
			sum.SectorHits += st.SectorHits
			sum.SectorMisses += st.SectorMisses
		}
		return sum
	}
	out["device.counter"] = hitRate(agg(s.ctrCaches))
	out["device.mac"] = hitRate(agg(s.macCaches))
	if len(s.devTrees) > 0 {
		out["device.bmt"] = hitRate(agg([]*metaCache{s.devTrees[0].cache}))
	}
	out["cxl.bmt"] = hitRate(s.cxlTree.cache.Stats())
	return out
}
