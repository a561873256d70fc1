package securemem

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/security/bmt"
	"github.com/salus-sim/salus/internal/security/counters"
)

// Direct CXL access path (Salus model only). Streaming stores that would
// pollute the device page cache can bypass it and update CXL-resident data
// in place. This is the case the Fig. 6 counter layout exists for: the
// CXL side keeps a split design with doubled (16-bit) minors per chunk so
// that in-place writes do not immediately overflow into major increments,
// each of which would force a chunk re-encryption sweep.
//
// A chunk with any non-zero CXL-side minor is in "split" state; its
// sectors were encrypted with (major, minor) pairs from the CXLSplitSector
// rather than (collapsedMajor, 0). When such a chunk later migrates to the
// device tier (or a checkpoint is requested), it is collapsed first so the
// invariant "resident-in-CXL data whose chunk is not split is encrypted
// under (collapsedMajor, 0)" holds again.

// ensureSplitState lazily allocates the CXL split-sector array and the
// tree that keeps the split counter blocks fresh (the paper's CXL BMT is
// built over exactly these counter blocks). Shards race to arm it, so the
// allocation is double-checked: splitArmed is only published after every
// structure is fully built, and concurrent readers consult splitArmed
// (never the slice headers) before touching split state.
func (s *System) ensureSplitState() error {
	if s.splitArmed.Load() {
		return nil
	}
	s.locks.split.Lock()
	defer s.locks.split.Unlock()
	if s.splitArmed.Load() {
		return nil
	}
	homeChunks := s.cfg.TotalPages * s.geo.ChunksPerPage()
	cxlSplit := make([]counters.CXLSplitSector, homeChunks)
	splitDirty := make([]bool, homeChunks)
	splitTree, err := bmt.New(s.eng, homeChunks)
	if err != nil {
		return err
	}
	splitTree.SetTrustCache(4096)
	s.cxlSplit = cxlSplit
	s.splitDirty = splitDirty
	s.splitTree = splitTree
	s.splitArmed.Store(true)
	return nil
}

// splitPair returns the effective (major, minor) for a CXL-resident
// sector, freshness-verifying the split counter block when the chunk is in
// split state.
func (s *System) splitPair(homeAddr HomeAddr) (major, minor uint64, err error) {
	chunk := homeAddr.Chunk(s.geo.ChunkSize)
	if s.splitArmed.Load() && s.splitDirty[chunk] {
		bump(&s.stats.BMTVerifies)
		if err := s.splitTree.VerifyCached(chunk, s.cxlSplit[chunk].Encode()); err != nil {
			return 0, 0, fmt.Errorf("%w: %v", ErrFreshness, err)
		}
		sic := (int(homeAddr) % s.geo.ChunkSize) / s.geo.SectorSize
		major, minor = s.cxlSplit[chunk].Pair(sic)
		return major, minor, nil
	}
	major, minor = s.homeCounterPair(homeAddr)
	return major, minor, nil
}

// WriteThrough writes data directly into the CXL tier without migrating
// the page, using the Fig. 6 doubled-minor split counters. It is only
// available under ModelSalus and only for pages not currently resident in
// the device tier (a resident page must be written through the cache to
// keep a single point of truth).
func (s *System) WriteThrough(addr HomeAddr, data []byte) error {
	if s.cfg.Model != ModelSalus {
		return fmt.Errorf("securemem: WriteThrough requires ModelSalus, have %v", s.cfg.Model)
	}
	if uint64(addr) > s.Size() || uint64(len(data)) > s.Size()-uint64(addr) {
		return ErrOutOfRange
	}
	if s.IsResident(addr) || (len(data) > 0 && s.IsResident(addr+HomeAddr(len(data))-1)) {
		return fmt.Errorf("securemem: WriteThrough to device-resident page %d", addr.Page(s.geo.PageSize))
	}
	if err := s.ensureSplitState(); err != nil {
		return err
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
			if err := s.directReadSector(HomeAddr(secBase), sector[:]); err != nil {
				return err
			}
		}
		copy(sector[inSec:inSec+n], data[off:off+n])
		if err := s.directWriteSector(HomeAddr(secBase), sector[:]); err != nil {
			return err
		}
		off += n
	}
	return nil
}

// ReadThrough reads directly from the CXL tier without migrating the page
// (ModelSalus only, non-resident pages only).
func (s *System) ReadThrough(addr HomeAddr, buf []byte) error {
	if s.cfg.Model != ModelSalus {
		return fmt.Errorf("securemem: ReadThrough requires ModelSalus, have %v", s.cfg.Model)
	}
	if uint64(addr) > s.Size() || uint64(len(buf)) > s.Size()-uint64(addr) {
		return ErrOutOfRange
	}
	if s.IsResident(addr) || (len(buf) > 0 && s.IsResident(addr+HomeAddr(len(buf))-1)) {
		return fmt.Errorf("securemem: ReadThrough of device-resident page %d", addr.Page(s.geo.PageSize))
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
		if err := s.directReadSector(HomeAddr(secBase), sector[:]); err != nil {
			return err
		}
		copy(buf[off:off+n], sector[inSec:inSec+n])
		off += n
	}
	return nil
}

// directReadSector decrypts and verifies one CXL-resident sector in place.
func (s *System) directReadSector(homeAddr HomeAddr, out []byte) error {
	if err := s.gateHome(homeAddr, false); err != nil {
		return err
	}
	major, minor, err := s.splitPair(homeAddr)
	if err != nil {
		return err
	}
	ct := s.cxlData[homeAddr : homeAddr+32]
	bump(&s.pageState(homeAddr.Page(s.geo.PageSize)).macVerifies)
	if !s.eng.VerifyMAC(ct, uint64(homeAddr), major, minor, s.homeMAC(homeAddr)) {
		return fmt.Errorf("%w: home address %#x", ErrIntegrity, uint64(homeAddr))
	}
	return s.eng.DecryptSector(out, ct, uint64(homeAddr), major, minor)
}

// directWriteSector encrypts one sector in the CXL tier under a bumped
// doubled-width minor counter.
func (s *System) directWriteSector(homeAddr HomeAddr, in []byte) error {
	if err := s.gateHome(homeAddr, true); err != nil {
		return err
	}
	chunk := homeAddr.Chunk(s.geo.ChunkSize)
	sic := (int(homeAddr) % s.geo.ChunkSize) / s.geo.SectorSize
	sp := &s.cxlSplit[chunk]
	if !s.splitDirty[chunk] {
		// Entering split state: seed the split major from the collapsed
		// major so already-encrypted sectors of the chunk stay decryptable
		// (their minors are zero, matching the fresh split minors).
		major, err := s.salusHomeMajor(chunk)
		if err != nil {
			return err
		}
		sp.Major = major
		sp.Minors = [counters.IFMinors]uint16{}
		s.splitDirty[chunk] = true
		s.markDirty(homeAddr.Page(s.geo.PageSize))
	}
	old := *sp
	if sp.Inc(sic) {
		// 16-bit minor overflow: re-encrypt the whole chunk under the
		// incremented major. The doubled minors make this 256× rarer than
		// it would be with 8-bit minors.
		if err := s.directReencryptChunk(uint64(chunk), &old, sp, sic, in); err != nil {
			return err
		}
	} else {
		major, minor := sp.Pair(sic)
		ct := s.cxlData[homeAddr : homeAddr+32]
		if err := s.eng.EncryptSector(ct, in, uint64(homeAddr), major, minor); err != nil {
			return err
		}
		mac, err := s.eng.MAC(ct, uint64(homeAddr), major, minor)
		if err != nil {
			return err
		}
		if err := s.storeHomeMAC(homeAddr, mac); err != nil {
			return err
		}
	}
	// Refresh both freshness structures: the split tree covers the full
	// split counter block (majors and minors), and the collapsed store is
	// kept in sync so migration sees the current major.
	bump(&s.chunkState(chunk).bmtUpdates)
	if err := s.splitTree.Update(chunk, sp.Encode()); err != nil {
		return err
	}
	return s.salusSetHomeMajor(chunk, sp.Major)
}

// directReencryptChunk re-encrypts a CXL-resident chunk after a split
// minor overflow.
func (s *System) directReencryptChunk(chunk uint64, old, cur *counters.CXLSplitSector, writeSic int, writeData []byte) error {
	cs := uint64(s.geo.ChunkSize)
	ss := uint64(s.geo.SectorSize)
	base := chunk * cs
	pt := make([]byte, ss)
	for i := 0; i < s.geo.SectorsPerChunk(); i++ {
		ha := base + uint64(i)*ss
		ct := s.cxlData[ha : ha+ss]
		if i == writeSic {
			copy(pt, writeData)
		} else {
			oldMajor, oldMinor := old.Pair(i)
			if err := s.eng.DecryptSector(pt, ct, ha, oldMajor, oldMinor); err != nil {
				return err
			}
		}
		newMajor, newMinor := cur.Pair(i)
		if err := s.eng.EncryptSector(ct, pt, ha, newMajor, newMinor); err != nil {
			return err
		}
		mac, err := s.eng.MAC(ct, ha, newMajor, newMinor)
		if err != nil {
			return err
		}
		if err := s.storeHomeMAC(HomeAddr(ha), mac); err != nil {
			return err
		}
		bump(&s.stats.OverflowReEncryptions)
	}
	return nil
}

// CheckpointChunk collapses a split CXL chunk back to the compact
// representation: if any minor is non-zero the major increments, every
// sector re-encrypts under (major, 0), and the chunk leaves split state.
// Migrating a split chunk's page to the device tier performs this
// implicitly.
func (s *System) CheckpointChunk(addr HomeAddr) error {
	if s.cfg.Model != ModelSalus {
		return fmt.Errorf("securemem: CheckpointChunk requires ModelSalus")
	}
	if uint64(addr) >= s.Size() {
		return ErrOutOfRange
	}
	chunk := addr.Chunk(s.geo.ChunkSize)
	if s.poisoned[chunk] {
		// A quarantined chunk has no data left to protect; treating the
		// checkpoint as done lets its page still migrate for the sake of
		// the healthy chunks.
		return nil
	}
	if !s.splitArmed.Load() || !s.splitDirty[chunk] {
		return nil
	}
	// The collapse below is a read-modify-write of the whole chunk in the
	// home tier; gate it before any counter state moves. If the chunk dies
	// here it is quarantined and the checkpoint becomes moot.
	if err := s.gateHome(HomeAddr(chunk*s.geo.ChunkSize), true); err != nil {
		if errors.Is(err, ErrPoison) {
			return nil
		}
		return err
	}
	sp := &s.cxlSplit[chunk]
	old := *sp
	newMajor, reenc := sp.Collapse()
	if reenc {
		cs := uint64(s.geo.ChunkSize)
		ss := uint64(s.geo.SectorSize)
		base := uint64(chunk) * cs
		pt := make([]byte, ss)
		for i := 0; i < s.geo.SectorsPerChunk(); i++ {
			ha := base + uint64(i)*ss
			ct := s.cxlData[ha : ha+ss]
			oldMajor, oldMinor := old.Pair(i)
			if err := s.eng.DecryptSector(pt, ct, ha, oldMajor, oldMinor); err != nil {
				return err
			}
			if err := s.eng.EncryptSector(ct, pt, ha, uint64(newMajor), 0); err != nil {
				return err
			}
			mac, err := s.eng.MAC(ct, ha, uint64(newMajor), 0)
			if err != nil {
				return err
			}
			if err := s.storeHomeMAC(HomeAddr(ha), mac); err != nil {
				return err
			}
			bump(&s.stats.CollapseReEncryptions)
		}
	}
	s.splitDirty[chunk] = false
	s.markDirty(chunk / s.geo.ChunksPerPage())
	bump(&s.chunkState(chunk).bmtUpdates)
	if err := s.splitTree.Update(chunk, sp.Encode()); err != nil {
		return err
	}
	return s.salusSetHomeMajor(chunk, newMajor)
}

// checkpointPage collapses every split chunk of a page; called before the
// page migrates into the device tier.
func (s *System) checkpointPage(page int) error {
	if !s.splitArmed.Load() {
		return nil
	}
	for c := 0; c < s.geo.ChunksPerPage(); c++ {
		addr := HomeAddr(page*s.geo.PageSize + c*s.geo.ChunkSize)
		if err := s.CheckpointChunk(addr); err != nil {
			return err
		}
	}
	return nil
}
