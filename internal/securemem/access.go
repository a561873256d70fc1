package securemem

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/fault"
)

// Read copies len(buf) bytes starting at addr into buf, transparently
// migrating the page to the device tier, decrypting, and verifying
// integrity and freshness. It returns ErrIntegrity/ErrFreshness when an
// attack is detected.
func (s *System) Read(addr HomeAddr, buf []byte) error {
	// Overflow-safe bounds check: addr+len can wrap for addresses near
	// 2^64, so never compute the sum.
	if uint64(addr) > s.Size() || uint64(len(buf)) > s.Size()-uint64(addr) {
		return ErrOutOfRange
	}
	bump(&s.pageState(addr.Page(s.geo.PageSize)).reads)
	ss := uint64(s.geo.SectorSize)
	base := uint64(addr)
	for off := uint64(0); off < uint64(len(buf)); {
		secBase := (base + off) / ss * ss
		inSec := base + off - secBase
		n := ss - inSec
		if rem := uint64(len(buf)) - off; n > rem {
			n = rem
		}
		var sector [32]byte
		if err := s.accessSector(HomeAddr(secBase), sector[:], false, nil); err != nil {
			return err
		}
		copy(buf[off:off+n], sector[inSec:inSec+n])
		off += n
	}
	return nil
}

// Write stores data at addr with read-modify-write at sector granularity.
// Each written sector gets a fresh counter, new ciphertext, and a new MAC.
func (s *System) Write(addr HomeAddr, data []byte) error {
	if uint64(addr) > s.Size() || uint64(len(data)) > s.Size()-uint64(addr) {
		return ErrOutOfRange
	}
	bump(&s.pageState(addr.Page(s.geo.PageSize)).writes)
	ss := uint64(s.geo.SectorSize)
	base := uint64(addr)
	for off := uint64(0); off < uint64(len(data)); {
		secBase := (base + off) / ss * ss
		inSec := base + off - secBase
		n := ss - inSec
		if rem := uint64(len(data)) - off; n > rem {
			n = rem
		}
		var sector [32]byte
		if inSec != 0 || n != ss {
			// Partial sector: fetch current plaintext first.
			if err := s.accessSector(HomeAddr(secBase), sector[:], false, nil); err != nil {
				return err
			}
		}
		copy(sector[inSec:inSec+n], data[off:off+n])
		if err := s.accessSector(HomeAddr(secBase), sector[:], true, sector[:]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// accessSector performs one sector-granular access on the device tier,
// migrating the page in first when needed. For reads, out receives the
// plaintext. For writes, in is the full new plaintext of the sector.
//
// Fault handling: quarantined home chunks refuse access with ErrPoison;
// pinned pages are served by the home-tier direct path; an uncorrectable
// device fault retires the frame and — when no dirty data was lost —
// recovers transparently by remapping or (ModelSalus) pinning the page.
// The loop is bounded: each turn either completes the access, returns, or
// retires one more frame.
func (s *System) accessSector(addr HomeAddr, out []byte, isWrite bool, in []byte) error {
	if err := s.poisonCheck(addr); err != nil {
		return err
	}
	page := addr.Page(s.geo.PageSize)
	if s.pinned[page] {
		return s.pinnedAccess(addr, out, isWrite, in)
	}
	for tries := 0; tries <= len(s.frames); tries++ {
		fi := s.pageTable[page]
		if fi < 0 {
			var err error
			fi, err = s.migrateIn(page)
			if errors.Is(err, errNoFrames) {
				if s.cfg.Model == ModelSalus {
					// Graceful degradation: the whole device tier is
					// retired, so serve the page from home for good.
					s.pinPage(page)
					return s.pinnedAccess(addr, out, isWrite, in)
				}
				return fmt.Errorf("%w: no usable device frame left for page %d", ErrPoison, page)
			}
			if err != nil {
				return err
			}
		}
		f := &s.frames[fi]
		f.lru = s.frameState(fi).tick()

		devAddr := FrameAddr(fi, s.geo.PageSize, addr.PageOffset(s.geo.PageSize))
		if err := s.gate(fault.TierDevice, uint64(devAddr), isWrite); err != nil {
			if !errors.Is(err, errUncorrectable) {
				return err // transient budget exhausted
			}
			if qerr := s.quarantineResident(fi); qerr != nil {
				return qerr // dirty chunks lost: wrapped ErrPoison
			}
			// Clean frame: the home copy is authoritative. Pin under Salus,
			// remap elsewhere (next loop turn) otherwise.
			if s.cfg.Model == ModelSalus {
				s.pinPage(page)
				return s.pinnedAccess(addr, out, isWrite, in)
			}
			continue
		}
		switch s.cfg.Model {
		case ModelNone:
			if isWrite {
				copy(s.devData[devAddr:devAddr+32], in)
				f.dirty |= 1 << uint(s.chunkInPage(addr))
			} else {
				copy(out, s.devData[devAddr:devAddr+32])
			}
			return nil
		case ModelSalus:
			return s.salusAccess(addr, devAddr, fi, out, isWrite, in)
		case ModelConventional:
			return s.convAccess(addr, devAddr, fi, out, isWrite, in)
		}
		return fmt.Errorf("securemem: unknown model %d", s.cfg.Model)
	}
	return fmt.Errorf("%w: no usable device frame left for page %d", ErrPoison, page)
}

func (s *System) chunkInPage(addr HomeAddr) int {
	return int(addr.PageOffset(s.geo.PageSize)) / s.geo.ChunkSize
}

func (s *System) blockInPage(addr HomeAddr) int {
	return int(addr.PageOffset(s.geo.PageSize)) / s.geo.BlockSize
}

// migrateIn copies a home page into a device frame, evicting a victim when
// no frame is free. Under Salus the ciphertext moves verbatim; under the
// conventional model every sector is decrypted with home-tier metadata and
// re-encrypted with device-tier metadata.
//
// Frames are partitioned by shard (see shard.go): a page only ever lands
// in a frame of its own shard, so every frame this function scans,
// evicts, or fills is owned by the caller's shard lock.
func (s *System) migrateIn(page int) (int, error) {
	// Gate the home-tier read side before any migration state moves: a
	// transient storm aborts cleanly and an uncorrectable home error
	// poisons the chunk instead of migrating garbage.
	if err := s.gateHomePageRead(page); err != nil {
		return -1, err
	}
	shard := s.pageShard(page)
	fi := s.freeFrame(shard)
	if fi < 0 {
		for {
			v := s.victimFrame(shard)
			if v < 0 {
				break
			}
			err := s.evict(v)
			if err == nil {
				fi = v
				break
			}
			var pe *parkedError
			if !errors.As(err, &pe) {
				return -1, err
			}
			// The victim parked on the writeback queue (link outage): it
			// stays resident and keeps serving; try the next-best victim.
		}
		if fi < 0 {
			// No free or evictable frame left in this shard. When frames
			// are parked awaiting the link, try to drain the shard's first
			// queued writeback to free one — on a live link this succeeds
			// immediately; during an outage the miss fails typed instead
			// of blocking or degrading the page to a permanent home-tier
			// pin.
			if qfi := s.wbqFirstOfShard(shard); qfi >= 0 {
				if err := s.drainFrame(qfi); err != nil {
					return -1, err
				}
				fi = s.freeFrame(shard)
			}
			if fi < 0 {
				return -1, errNoFrames
			}
		}
	}
	// Split chunks (direct CXL writes) must be checkpointed back to the
	// collapsed representation before their ciphertext can move verbatim.
	if s.cfg.Model == ModelSalus {
		if err := s.checkpointPage(page); err != nil {
			return -1, err
		}
	}
	bump(&s.stats.PageMigrationsIn)
	f := &s.frames[fi]
	*f = frame{homePage: page}
	s.pageTable[page] = fi
	f.lru = s.frameState(fi).tick()

	src := s.cxlData[page*s.geo.PageSize : (page+1)*s.geo.PageSize]
	dst := s.devData[fi*s.geo.PageSize : (fi+1)*s.geo.PageSize]
	switch s.cfg.Model {
	case ModelNone, ModelSalus:
		// Ciphertext (or plaintext for ModelNone) moves verbatim: the
		// unified model needs no re-encryption on relocation. Device
		// counter groups and MAC sectors arrive lazily on first access.
		copy(dst, src)
	case ModelConventional:
		if err := s.convMigrateIn(page, fi, src, dst); err != nil {
			return -1, err
		}
	}
	return fi, nil
}

// freeFrame returns a free, non-quarantined frame of the given shard, or
// -1. The stride walk visits the same frames in the same order as the
// pre-sharding full scan when nShards is 1.
func (s *System) freeFrame(shard int) int {
	for i := shard; i < len(s.frames); i += s.nShards {
		if s.frames[i].homePage < 0 && !s.frames[i].quarantined {
			return i
		}
	}
	return -1
}

// victimFrame returns the LRU frame index among the shard's usable
// frames, or -1 when every frame has been quarantined or parked on the
// writeback queue.
func (s *System) victimFrame(shard int) int {
	best := -1
	for i := shard; i < len(s.frames); i += s.nShards {
		if s.frames[i].quarantined || s.frames[i].parked {
			continue
		}
		if best < 0 || s.frames[i].lru < s.frames[best].lru {
			best = i
		}
	}
	return best
}

// evict writes a frame back to the home tier per the active model and
// frees it. An eviction the link refuses parks the frame on the
// dirty-writeback queue instead (see link.go); PageEvictions counts only
// completed evictions, so the tier-conservation and per-chunk eviction
// arithmetic stay exact when an eviction parks or aborts.
func (s *System) evict(fi int) error {
	f := &s.frames[fi]
	if f.homePage < 0 {
		return nil
	}
	if f.parked {
		// Parked frames leave only through the writeback queue (drainOne
		// clears the flag first), preserving the FIFO drain order.
		return &parkedError{cause: ErrLinkDown}
	}
	var err error
	switch s.cfg.Model {
	case ModelNone:
		err = s.noneEvict(fi)
	case ModelSalus:
		err = s.salusEvict(fi)
	case ModelConventional:
		err = s.convEvict(fi)
	}
	if err != nil {
		if errors.Is(err, ErrLinkDown) || errors.Is(err, ErrDegraded) {
			return s.park(fi, err)
		}
		return err
	}
	bump(&s.stats.PageEvictions)
	s.pageTable[f.homePage] = -1
	f.homePage = -1
	f.dirty, f.macIn, f.ctrIn = 0, 0, 0
	return nil
}

// noneEvict copies dirty chunks back for the unprotected model.
func (s *System) noneEvict(fi int) error {
	if err := s.gateEvictWrites(fi, false); err != nil {
		return err
	}
	f := &s.frames[fi]
	page := f.homePage
	cs := s.geo.ChunkSize
	for c := 0; c < s.geo.ChunksPerPage(); c++ {
		if f.dirty&(1<<uint(c)) == 0 {
			continue
		}
		if s.poisoned[page*s.geo.ChunksPerPage()+c] {
			// The writeback target died under the eviction gate: the chunk
			// is quarantined and its data dropped.
			continue
		}
		srcOff := fi*s.geo.PageSize + c*cs
		dstOff := page*s.geo.PageSize + c*cs
		copy(s.cxlData[dstOff:dstOff+cs], s.devData[srcOff:srcOff+cs])
	}
	return nil
}

// Flush evicts every resident page, as at kernel completion. During a
// link outage, evictions the link refuses park on the dirty-writeback
// queue — those pages stay resident (check QueuedWritebacks) and drain
// on recovery via DrainWritebacks; Flush itself fails only on real
// errors, including ErrQueueFull backpressure when a park does not fit.
func (s *System) Flush() error {
	for fi := range s.frames {
		if s.frames[fi].parked {
			continue
		}
		if err := s.evict(fi); err != nil {
			var pe *parkedError
			if errors.As(err, &pe) {
				continue
			}
			return err
		}
	}
	return nil
}
