package securemem

import (
	"fmt"

	"github.com/salus-sim/salus/internal/security/counters"
)

// Salus model internals. Every cryptographic computation below uses the
// *home* (CXL) address of the data, never its device location — this is
// the unified security model. Device-side counter groups exist only to
// track writes at fine granularity while the page is resident; the group's
// CXL tag records which home page the group belongs to.

// salusDevGroup returns the device counter group of a frame chunk, filling
// it from the chunk's MAC sector (embedded collapsed major) on first touch.
func (s *System) salusDevGroup(fi int, homeAddr HomeAddr) (*counters.IFGroup, error) {
	f := &s.frames[fi]
	cip := s.chunkInPage(homeAddr)
	gi := fi*s.geo.ChunksPerPage() + cip
	g := &s.devGroups[gi]
	if f.ctrIn&(1<<uint(cip)) == 0 {
		// Fetch-on-access: the major arrives embedded in the MAC sector.
		if err := s.salusFetchMAC(fi, homeAddr); err != nil {
			return nil, err
		}
		homeChunk := homeAddr.Chunk(s.geo.ChunkSize)
		major, err := s.salusHomeMajor(homeChunk)
		if err != nil {
			return nil, err
		}
		g.FillFromCollapsed(uint32(f.homePage), major)
		f.ctrIn |= 1 << uint(cip)
		if err := s.salusDevTreeUpdate(gi); err != nil {
			return nil, err
		}
	}
	if g.CXLTag != uint32(f.homePage) {
		return nil, fmt.Errorf("securemem: device counter group tag %d does not match page %d", g.CXLTag, f.homePage)
	}
	return g, nil
}

// salusHomeMajor reads (and freshness-verifies) the collapsed major of a
// home chunk.
func (s *System) salusHomeMajor(homeChunk int) (uint32, error) {
	si := homeChunk / counters.CollapsedMajors
	leaf := s.collapsed[si].Encode()
	bump(&s.stats.BMTVerifies)
	if err := s.cxlTree.VerifyCached(si, leaf); err != nil {
		return 0, fmt.Errorf("%w: %v", ErrFreshness, err)
	}
	return s.collapsed[si].Majors[homeChunk%counters.CollapsedMajors], nil
}

// salusSetHomeMajor updates the collapsed major of a home chunk and the
// CXL tree.
func (s *System) salusSetHomeMajor(homeChunk int, major uint32) error {
	s.storeHomeMajor(homeChunk, major)
	return s.salusHomeTreeUpdate(homeChunk)
}

// storeHomeMajor records the collapsed major of a home chunk. Every
// counter change funnels through here, making it (with storeHomeMAC) the
// chokepoint for checkpoint dirty-page and digest-leaf tracking. The
// CXL tree leaf is left to the caller's salusHomeTreeUpdate.
func (s *System) storeHomeMajor(homeChunk int, major uint32) {
	s.markDirty(homeChunk * s.geo.ChunkSize / s.geo.PageSize)
	s.collapsed[homeChunk/counters.CollapsedMajors].Majors[homeChunk%counters.CollapsedMajors] = major
}

// salusHomeTreeUpdate refreshes the CXL tree leaf (collapsed sector)
// covering a home chunk.
func (s *System) salusHomeTreeUpdate(homeChunk int) error {
	si := homeChunk / counters.CollapsedMajors
	bump(&s.chunkState(homeChunk).bmtUpdates)
	return s.cxlTree.Update(si, s.collapsed[si].Encode())
}

// salusDevTreeUpdate refreshes the device-subtree leaf covering group gi
// (frame gi/ChunksPerPage, chunk gi%ChunksPerPage). The leaf sits in the
// subtree of the frame's shard (see devLeaf), so the update touches only
// state the caller's shard lock guards.
func (s *System) salusDevTreeUpdate(gi int) error {
	cpp := s.geo.ChunksPerPage()
	fi, cip := gi/cpp, gi%cpp
	first := cip / counters.GroupsPerSector * counters.GroupsPerSector
	var sec counters.IFSector
	for k := 0; k < counters.GroupsPerSector && first+k < cpp; k++ {
		sec.Groups[k] = s.devGroups[fi*cpp+first+k]
	}
	st := s.frameState(fi)
	bump(&st.bmtUpdates)
	return st.devTree.Update(s.devLeaf(fi, cip), sec.Encode())
}

// salusFetchMAC ensures the MAC sector of homeAddr's block is present on
// the device side (fetch-only-on-access, §IV-A3). The MAC store is home-
// indexed, so the "fetch" is an accounting event plus the CXL-tag check
// that the hardware would perform.
func (s *System) salusFetchMAC(fi int, homeAddr HomeAddr) error {
	f := &s.frames[fi]
	bip := s.blockInPage(homeAddr)
	if f.macIn&(1<<uint(bip)) == 0 {
		bump(&s.stats.LazyMACFetches)
		f.macIn |= 1 << uint(bip)
	}
	return nil
}

// salusAccess performs one resident-sector access under the Salus model.
func (s *System) salusAccess(homeAddr HomeAddr, devAddr DevAddr, fi int, out []byte, isWrite bool, in []byte) error {
	g, err := s.salusDevGroup(fi, homeAddr)
	if err != nil {
		return err
	}
	if err := s.salusFetchMAC(fi, homeAddr); err != nil {
		return err
	}
	sic := (int(homeAddr) % s.geo.ChunkSize) / s.geo.SectorSize // sector index in chunk
	ct := s.devData[devAddr : devAddr+32]

	if !isWrite {
		major, minor := g.Pair(sic)
		bump(&s.frameState(fi).macVerifies)
		if !s.eng.VerifyMAC(ct, uint64(homeAddr), major, minor, s.homeMAC(homeAddr)) {
			return fmt.Errorf("%w: home address %#x", ErrIntegrity, uint64(homeAddr))
		}
		return s.eng.DecryptSector(out, ct, uint64(homeAddr), major, minor)
	}

	// Write: bump the minor; an overflow re-encrypts the whole chunk under
	// the incremented major (blast radius = one chunk, the point of the
	// interleaving-friendly layout). The pre-Inc group state is needed to
	// decrypt the chunk's other sectors, so snapshot it first.
	old := *g
	if g.Inc(sic) {
		if err := s.salusReencryptChunk(homeAddr, fi, &old, g, sic, in); err != nil {
			return err
		}
	} else {
		major, minor := g.Pair(sic)
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
	f := &s.frames[fi]
	f.dirty |= 1 << uint(s.chunkInPage(homeAddr))
	gi := fi*s.geo.ChunksPerPage() + s.chunkInPage(homeAddr)
	return s.salusDevTreeUpdate(gi)
}

// salusReencryptChunk re-encrypts every sector of a resident chunk after a
// minor overflow: each sector is decrypted under its old (pre-overflow)
// pair and re-encrypted under (newMajor, 0); sector writeSic takes
// writeData instead of its old plaintext.
func (s *System) salusReencryptChunk(homeAddr HomeAddr, fi int, old, cur *counters.IFGroup, writeSic int, writeData []byte) error {
	cs := uint64(s.geo.ChunkSize)
	ss := uint64(s.geo.SectorSize)
	chunkHomeBase := uint64(homeAddr) / cs * cs
	pageOff := chunkHomeBase % uint64(s.geo.PageSize)
	chunkDevBase := uint64(fi*s.geo.PageSize) + pageOff
	pt := make([]byte, ss)
	for i := 0; i < s.geo.SectorsPerChunk(); i++ {
		ha := chunkHomeBase + uint64(i)*ss
		ct := s.devData[chunkDevBase+uint64(i)*ss : chunkDevBase+uint64(i+1)*ss]
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

// salusEvict writes a frame back under the Salus model: the fine-grained
// dirty bitmask selects which chunks move (§IV-A4); each dirty chunk is
// collapsed — one re-encryption under the incremented major with zeroed
// minors — and its ciphertext plus MAC sectors (with the embedded major)
// land in the home tier. Clean chunks need no traffic at all: their home-
// tier ciphertext is still valid because it was never re-encrypted.
func (s *System) salusEvict(fi int) error {
	if err := s.gateEvictWrites(fi, false); err != nil {
		return err
	}
	f := &s.frames[fi]
	page := f.homePage
	cs := s.geo.ChunkSize
	ss := s.geo.SectorSize
	var sector [32]byte // a stack scratch: evictions run once per page miss
	pt := sector[:]
	for c := 0; c < s.geo.ChunksPerPage(); c++ {
		if f.dirty&(1<<uint(c)) == 0 {
			bump(&s.stats.CleanChunksSkipped)
			continue
		}
		bump(&s.stats.DirtyChunkWritebacks)
		homeChunk := page*s.geo.ChunksPerPage() + c
		if s.poisoned[homeChunk] {
			// The writeback target died under the eviction gate: the chunk
			// is quarantined, its writeback suppressed (still accounted as a
			// dirty-chunk writeback so the eviction arithmetic stays exact).
			continue
		}
		gi := fi*s.geo.ChunksPerPage() + c
		g := &s.devGroups[gi]
		old := *g
		newMajor, reenc := g.Collapse()
		chunkHomeBase := uint64(homeChunk * cs)
		chunkDevBase := uint64(fi*s.geo.PageSize + c*cs)
		for i := 0; i < s.geo.SectorsPerChunk(); i++ {
			ha := chunkHomeBase + uint64(i*ss)
			ct := s.devData[chunkDevBase+uint64(i*ss) : chunkDevBase+uint64((i+1)*ss)]
			if reenc {
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
			copy(s.cxlData[ha:ha+uint64(ss)], ct)
		}
		if err := s.salusSetHomeMajor(homeChunk, newMajor); err != nil {
			return err
		}
		// The chunk's MAC sectors travel back with the embedded major.
		for b := 0; b < s.geo.BlocksPerChunk(); b++ {
			blockIdx := int(chunkHomeBase)/s.geo.BlockSize + b
			s.macSectors[blockIdx].Major = newMajor
		}
	}
	return nil
}
