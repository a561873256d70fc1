// Package pagecache models the GPU device memory as a page cache of the
// CXL-expansion memory, the organisation the paper assumes (§III-B): pages
// migrate in on demand, a background evictor keeps free frames available,
// and per-chunk touched/dirty bitmasks feed fetch-on-access and
// fine-grained dirty tracking.
//
// The page cache owns data movement (page copies and writebacks); the
// attached security engine owns all metadata movement and decides whether
// writebacks are page- or chunk-granular.
package pagecache

import (
	"fmt"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/secsim"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/stats"
)

type frameStatus int

const (
	frameFree frameStatus = iota
	frameFilling
	frameResident
	frameEvicting
)

type frameState struct {
	status   frameStatus
	homePage int
	lru      uint64
	dirty    uint64 // per-chunk dirty mask
	touched  uint64 // per-chunk touched mask
	present  uint64 // per-chunk filled mask (all chunks under whole-page mode)
	pins     int    // in-flight demand chunk fills; a pinned frame is not evictable
}

// Mode selects the migration granularity.
type Mode int

const (
	// WholePage copies the full 4 KiB page on a fault, the paper's default
	// assumption.
	WholePage Mode = iota
	// Predictive copies only the faulting chunk plus the chunks the page's
	// previous residency touched (a footprint-style predictor); other
	// chunks fill on demand. The paper notes its security design works
	// with either scheme (§IV-A3).
	Predictive
)

// PageCache manages the device tier as a cache of the home space.
type PageCache struct {
	geo    config.Geometry
	device *dram.Memory
	cxl    *cxlmem.Memory
	sec    secsim.Engine
	ops    *stats.Ops

	frames      []frameState
	pageToFrame []int
	lruClock    uint64

	// pageWaiters holds callbacks per home page awaiting an in-flight fill.
	pageWaiters map[int][]func(frame int)
	// chunkWaiters holds accesses blocked on an in-flight chunk fill,
	// keyed by frame*chunksPerPage+chunk.
	chunkWaiters map[int][]func()
	// frameWaiters holds fills blocked on a free frame.
	frameWaiters   []func(frame int)
	freeFrames     []int
	lowWater       int
	inFlightEvicts int

	mode    Mode
	history map[int]uint64 // homePage -> touched mask of previous residency

	// evictNotifier, when set, is told about each page leaving the device
	// tier (the interconnect uses it for directed mapping invalidation).
	evictNotifier func(homePage int)
}

// New builds a page cache with the given number of device frames over a
// home space of totalPages.
func New(geo config.Geometry, device *dram.Memory, cxl *cxlmem.Memory,
	sec secsim.Engine, ops *stats.Ops, totalPages, frames int) (*PageCache, error) {
	if frames <= 0 || totalPages <= 0 {
		return nil, fmt.Errorf("pagecache: need positive sizes, got frames=%d totalPages=%d", frames, totalPages)
	}
	if geo.ChunksPerPage() > 64 {
		return nil, fmt.Errorf("pagecache: %d chunks per page exceeds the 64-bit mask", geo.ChunksPerPage())
	}
	pc := &PageCache{
		geo:          geo,
		device:       device,
		cxl:          cxl,
		sec:          sec,
		ops:          ops,
		frames:       make([]frameState, frames),
		pageToFrame:  make([]int, totalPages),
		pageWaiters:  make(map[int][]func(int)),
		chunkWaiters: make(map[int][]func()),
		lowWater:     2,
		history:      make(map[int]uint64),
	}
	if pc.lowWater > frames/2 {
		pc.lowWater = 1
	}
	for i := range pc.pageToFrame {
		pc.pageToFrame[i] = -1
	}
	for i := frames - 1; i >= 0; i-- {
		pc.frames[i].homePage = -1
		pc.freeFrames = append(pc.freeFrames, i)
	}
	return pc, nil
}

// SetMode selects whole-page or predictive partial migration. Call before
// simulation starts.
func (pc *PageCache) SetMode(m Mode) { pc.mode = m }

// SetEvictNotifier registers a callback run at the start of every page
// eviction (used for directed mapping-cache invalidation).
func (pc *PageCache) SetEvictNotifier(fn func(homePage int)) { pc.evictNotifier = fn }

// Frames returns the device-tier capacity in frames.
func (pc *PageCache) Frames() int { return len(pc.frames) }

// Resident reports whether a home page is currently resident (and usable).
func (pc *PageCache) Resident(homePage int) bool {
	fi := pc.pageToFrame[homePage]
	return fi >= 0 && pc.frames[fi].status == frameResident
}

// Access routes one data access: it guarantees the page is resident, marks
// the touched/dirty masks, and calls done with the device address of the
// access. The call to done may be immediate (page already resident) or
// deferred behind a page fill.
func (pc *PageCache) Access(homeAddr securemem.HomeAddr, write bool, done func(devAddr securemem.DevAddr)) {
	page := homeAddr.Page(pc.geo.PageSize)
	if page >= len(pc.pageToFrame) {
		panic(fmt.Sprintf("pagecache: access to page %d beyond home space", page))
	}
	chunk := int(homeAddr.PageOffset(pc.geo.PageSize)) / pc.geo.ChunkSize
	complete := func(frame int) {
		f := &pc.frames[frame]
		pc.lruClock++
		f.lru = pc.lruClock
		finish := func() {
			// The frame may have been evicted (and even re-targeted)
			// while a demand chunk fill was in flight; marking bits on
			// the new occupant would corrupt its state, so refault.
			if f.homePage != page || f.status != frameResident {
				pc.Access(homeAddr, write, done)
				return
			}
			f.touched |= 1 << uint(chunk)
			if write {
				f.dirty |= 1 << uint(chunk)
			}
			done(securemem.FrameAddr(frame, pc.geo.PageSize, homeAddr.PageOffset(pc.geo.PageSize)))
		}
		if f.present&(1<<uint(chunk)) != 0 {
			finish()
			return
		}
		// Predictive mode: the chunk was not part of the prefetched
		// footprint — fill it on demand.
		pc.fillChunk(frame, page, chunk, finish)
	}
	switch fi := pc.pageToFrame[page]; {
	case fi >= 0 && pc.frames[fi].status == frameResident:
		complete(fi)
	case fi >= 0 || fi == fillPending:
		// A fill is already in flight (with or without a frame assigned).
		pc.pageWaiters[page] = append(pc.pageWaiters[page], complete)
	default:
		pc.pageWaiters[page] = append(pc.pageWaiters[page], complete)
		pc.fault(page)
	}
}

// fillPending marks a page whose fill has been requested but not yet
// assigned a frame.
const fillPending = -2

// fault initiates the migration of a home page into some frame.
func (pc *PageCache) fault(page int) {
	pc.pageToFrame[page] = fillPending
	pc.withFreeFrame(func(frame int) {
		f := &pc.frames[frame]
		f.status = frameFilling
		f.homePage = page
		f.dirty, f.touched, f.present = 0, 0, 0
		pc.pageToFrame[page] = frame
		pc.ops.PagesMigratedIn++

		// Choose the fill footprint: the whole page, or (predictive mode)
		// the chunks the page's previous residency touched. A first-time
		// page has no history and prefetches nothing; the faulting access
		// fills its chunk on demand after the fill completes.
		fillMask := uint64(1)<<uint(pc.geo.ChunksPerPage()) - 1
		if pc.mode == Predictive {
			fillMask = pc.history[page]
		}
		f.present = fillMask
		nChunks := popcount(fillMask)
		pc.ops.ChunksMigrated += uint64(nChunks)

		// The data movement (the footprint over the CXL link, chunks
		// landing on their interleaved device channels) and the security
		// work proceed in parallel; the fill completes when both have.
		pending := 2
		complete := func() {
			pending--
			if pending == 0 {
				pc.fillComplete(page, frame)
			}
		}
		if pc.mode == Predictive {
			// Chunk-proportional security work.
			j := nChunks
			if j == 0 {
				complete()
			} else {
				for c := 0; c < pc.geo.ChunksPerPage(); c++ {
					if fillMask&(1<<uint(c)) == 0 {
						continue
					}
					pc.sec.OnChunkFill(page, frame, c, func() {
						j--
						if j == 0 {
							complete()
						}
					})
				}
			}
		} else {
			pc.sec.OnMigrateIn(page, frame, complete)
		}
		if nChunks == 0 {
			complete()
			return
		}
		pc.cxl.Access(uint64(nChunks*pc.geo.ChunkSize), stats.Data, func() {
			remaining := nChunks
			for c := 0; c < pc.geo.ChunksPerPage(); c++ {
				if fillMask&(1<<uint(c)) == 0 {
					continue
				}
				devAddr := uint64(frame*pc.geo.PageSize + c*pc.geo.ChunkSize)
				pc.device.Access(devAddr, uint64(pc.geo.ChunkSize), stats.Data, func() {
					remaining--
					if remaining == 0 {
						complete()
					}
				})
			}
		})
	})
	pc.maintainFreeSpace()
}

func (pc *PageCache) fillComplete(page, frame int) {
	pc.frames[frame].status = frameResident
	waiters := pc.pageWaiters[page]
	delete(pc.pageWaiters, page)
	for _, w := range waiters {
		w(frame)
	}
	// Fills queued behind a frame shortage can only be unblocked by an
	// eviction, and this frame just became evictable: re-kick the evictor.
	if len(pc.frameWaiters) > 0 {
		pc.maintainFreeSpace()
	}
}

// withFreeFrame invokes fn with a free frame, now or when one frees up.
func (pc *PageCache) withFreeFrame(fn func(frame int)) {
	if n := len(pc.freeFrames); n > 0 {
		frame := pc.freeFrames[n-1]
		pc.freeFrames = pc.freeFrames[:n-1]
		fn(frame)
		return
	}
	pc.frameWaiters = append(pc.frameWaiters, fn)
	pc.maintainFreeSpace()
}

// maintainFreeSpace runs the background evictor: keep at least lowWater
// frames free (or becoming free), as the paper's mapping discussion
// assumes ("evictions from the GPU memory may occur in the background").
func (pc *PageCache) maintainFreeSpace() {
	for len(pc.freeFrames)+pc.inFlightEvicts < pc.lowWater+len(pc.frameWaiters) {
		victim := pc.lruResident()
		if victim < 0 {
			return
		}
		pc.startEvict(victim)
	}
}

func (pc *PageCache) lruResident() int {
	best := -1
	for i := range pc.frames {
		if pc.frames[i].status != frameResident || pc.frames[i].pins > 0 {
			continue
		}
		if best < 0 || pc.frames[i].lru < pc.frames[best].lru {
			best = i
		}
	}
	return best
}

// startEvict writes a frame's data back per the security model's
// writeback policy and frees the frame.
func (pc *PageCache) startEvict(frame int) {
	f := &pc.frames[frame]
	page := f.homePage
	f.status = frameEvicting
	pc.inFlightEvicts++
	pc.ops.PagesEvicted++
	pc.pageToFrame[page] = -1 // accesses from now on refault
	if pc.evictNotifier != nil {
		pc.evictNotifier(page)
	}

	// Record the touched footprint for the predictor before the frame is
	// recycled.
	pc.history[page] = f.touched

	writeMask := f.present
	if pc.sec.FineGrainedWriteback() {
		writeMask = f.dirty
	}
	nChunks := 0
	for m := writeMask; m != 0; m &= m - 1 {
		nChunks++
	}
	pc.ops.ChunksWrittenBack += uint64(nChunks)

	// The data writeback and the model's eviction security work overlap;
	// the frame frees when both complete.
	dirty, present := f.dirty, f.present
	pending := 2
	complete := func() {
		pending--
		if pending == 0 {
			pc.inFlightEvicts--
			pc.frameFreed(frame)
		}
	}
	pc.sec.OnEvict(page, frame, dirty, present, complete)
	if nChunks == 0 {
		complete()
		return
	}
	// Data movement: read the chunks from their device channels, then one
	// aggregated transfer over the CXL link.
	remaining := nChunks
	for c := 0; c < pc.geo.ChunksPerPage(); c++ {
		if writeMask&(1<<uint(c)) == 0 {
			continue
		}
		devAddr := uint64(frame*pc.geo.PageSize + c*pc.geo.ChunkSize)
		pc.device.Access(devAddr, uint64(pc.geo.ChunkSize), stats.Data, func() {
			remaining--
			if remaining == 0 {
				pc.cxl.Access(uint64(nChunks*pc.geo.ChunkSize), stats.Data, complete)
			}
		})
	}
}

func (pc *PageCache) frameFreed(frame int) {
	f := &pc.frames[frame]
	f.status = frameFree
	f.homePage = -1
	f.dirty, f.touched, f.present, f.pins = 0, 0, 0, 0
	if len(pc.frameWaiters) > 0 {
		fn := pc.frameWaiters[0]
		pc.frameWaiters = pc.frameWaiters[1:]
		fn(frame)
		if len(pc.frameWaiters) > 0 {
			pc.maintainFreeSpace()
		}
		return
	}
	pc.freeFrames = append(pc.freeFrames, frame)
}

// DirtyMask returns the dirty chunk mask of a resident page (0 otherwise);
// used by tests.
func (pc *PageCache) DirtyMask(homePage int) uint64 {
	fi := pc.pageToFrame[homePage]
	if fi < 0 {
		return 0
	}
	return pc.frames[fi].dirty
}

// fillChunk fills one chunk on demand (predictive mode): data over the
// link plus the chunk-proportional security work. Concurrent accesses to
// the same in-flight chunk merge.
func (pc *PageCache) fillChunk(frame, page, chunk int, done func()) {
	key := frame*pc.geo.ChunksPerPage() + chunk
	if waiters, ok := pc.chunkWaiters[key]; ok {
		pc.chunkWaiters[key] = append(waiters, done)
		return
	}
	pc.chunkWaiters[key] = []func(){done}
	pc.ops.ChunksMigrated++
	// Pin the frame so the evictor cannot recycle it while the fill is in
	// flight; otherwise waiters would complete against a stale mapping.
	pc.frames[frame].pins++

	pending := 2
	complete := func() {
		pending--
		if pending != 0 {
			return
		}
		f := &pc.frames[frame]
		f.pins--
		f.present |= 1 << uint(chunk)
		waiters := pc.chunkWaiters[key]
		delete(pc.chunkWaiters, key)
		for _, w := range waiters {
			w()
		}
		// An eviction may have been waiting for the pin to drop.
		if f.pins == 0 && len(pc.frameWaiters) > 0 {
			pc.maintainFreeSpace()
		}
	}
	devAddr := uint64(frame*pc.geo.PageSize + chunk*pc.geo.ChunkSize)
	pc.cxl.Access(uint64(pc.geo.ChunkSize), stats.Data, func() {
		pc.device.Access(devAddr, uint64(pc.geo.ChunkSize), stats.Data, complete)
	})
	pc.sec.OnChunkFill(page, frame, chunk, complete)
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
