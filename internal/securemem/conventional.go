package securemem

import (
	"fmt"

	"github.com/salus-sim/salus/internal/security/counters"
)

// Conventional model internals. Metadata is bound to the *physical*
// location of the data: the home tier has its own counter sectors, MACs,
// and tree, and the device tier has another set indexed by frame address.
// Moving a page therefore decrypts every sector with source-tier metadata
// and re-encrypts it with destination-tier metadata, in both directions —
// the overhead the paper's motivation section measures at 2.04×.

// convHomePair returns the counter pair of a home-tier sector, verifying
// the counter sector's freshness against the home tree.
func (s *System) convHomePair(homeAddr HomeAddr) (major, minor uint64, err error) {
	secIdx := homeAddr.Sector(s.geo.SectorSize)
	ci := secIdx / counters.ConvMinors
	bump(&s.stats.BMTVerifies)
	if err := s.convCXLTree.VerifyCached(ci, s.convCXLCtrs[ci].Encode()); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrFreshness, err)
	}
	major, minor = s.convCXLCtrs[ci].Pair(secIdx % counters.ConvMinors)
	return major, minor, nil
}

// convDevPair is convHomePair for the device tier.
func (s *System) convDevPair(devAddr DevAddr) (major, minor uint64, err error) {
	secIdx := devAddr.Sector(s.geo.SectorSize)
	ci := secIdx / counters.ConvMinors
	bump(&s.stats.BMTVerifies)
	if err := s.convDevTree.VerifyCached(ci, s.convDevCtrs[ci].Encode()); err != nil {
		return 0, 0, fmt.Errorf("%w: %v", ErrFreshness, err)
	}
	major, minor = s.convDevCtrs[ci].Pair(secIdx % counters.ConvMinors)
	return major, minor, nil
}

// convBumpHome increments a home-tier sector counter, re-encrypting the
// covered region on overflow, and updates the home tree.
func (s *System) convBumpHome(homeAddr HomeAddr) (major, minor uint64, err error) {
	secIdx := homeAddr.Sector(s.geo.SectorSize)
	ci := secIdx / counters.ConvMinors
	cs := &s.convCXLCtrs[ci]
	old := *cs
	if cs.Inc(secIdx % counters.ConvMinors) {
		if err := s.convReencryptHomeRegion(ci, &old, cs, secIdx); err != nil {
			return 0, 0, err
		}
	}
	bump(&s.pageState(homeAddr.Page(s.geo.PageSize)).bmtUpdates)
	if err := s.convCXLTree.Update(ci, cs.Encode()); err != nil {
		return 0, 0, err
	}
	major, minor = cs.Pair(secIdx % counters.ConvMinors)
	return major, minor, nil
}

// convBumpDev is convBumpHome for the device tier.
func (s *System) convBumpDev(devAddr DevAddr) (major, minor uint64, err error) {
	secIdx := devAddr.Sector(s.geo.SectorSize)
	ci := secIdx / counters.ConvMinors
	cs := &s.convDevCtrs[ci]
	old := *cs
	if cs.Inc(secIdx % counters.ConvMinors) {
		if err := s.convReencryptDevRegion(ci, &old, cs, secIdx); err != nil {
			return 0, 0, err
		}
	}
	bump(&s.frameState(int(devAddr) / s.geo.PageSize).bmtUpdates)
	if err := s.convDevTree.Update(ci, cs.Encode()); err != nil {
		return 0, 0, err
	}
	major, minor = cs.Pair(secIdx % counters.ConvMinors)
	return major, minor, nil
}

// convReencryptHomeRegion re-encrypts the 1 KiB home region covered by
// counter sector ci after an overflow (skipSec keeps its old ciphertext
// invalid and is re-written by the caller right after).
func (s *System) convReencryptHomeRegion(ci int, old, cur *counters.ConventionalSector, skipSec int) error {
	ss := s.geo.SectorSize
	pt := make([]byte, ss)
	for k := 0; k < counters.ConvMinors; k++ {
		secIdx := ci*counters.ConvMinors + k
		if secIdx*ss >= len(s.cxlData) {
			break
		}
		if secIdx == skipSec {
			continue
		}
		ha := uint64(secIdx * ss)
		ct := s.cxlData[ha : ha+uint64(ss)]
		oldMajor, oldMinor := old.Pair(k)
		if err := s.eng.DecryptSector(pt, ct, ha, oldMajor, oldMinor); err != nil {
			return err
		}
		newMajor, newMinor := cur.Pair(k)
		if err := s.eng.EncryptSector(ct, pt, ha, newMajor, newMinor); err != nil {
			return err
		}
		mac, err := s.eng.MAC(ct, ha, newMajor, newMinor)
		if err != nil {
			return err
		}
		s.convCXLMACs[secIdx] = mac
		bump(&s.stats.OverflowReEncryptions)
	}
	return nil
}

// convReencryptDevRegion is the device-tier counterpart, re-encrypting only
// resident sectors (frames may be partially mapped at region edges).
func (s *System) convReencryptDevRegion(ci int, old, cur *counters.ConventionalSector, skipSec int) error {
	ss := s.geo.SectorSize
	pt := make([]byte, ss)
	for k := 0; k < counters.ConvMinors; k++ {
		secIdx := ci*counters.ConvMinors + k
		if secIdx*ss >= len(s.devData) {
			break
		}
		if secIdx == skipSec {
			continue
		}
		fi := secIdx * ss / s.geo.PageSize
		if s.frames[fi].homePage < 0 {
			continue
		}
		da := uint64(secIdx * ss)
		ct := s.devData[da : da+uint64(ss)]
		oldMajor, oldMinor := old.Pair(k)
		if err := s.eng.DecryptSector(pt, ct, da, oldMajor, oldMinor); err != nil {
			return err
		}
		newMajor, newMinor := cur.Pair(k)
		if err := s.eng.EncryptSector(ct, pt, da, newMajor, newMinor); err != nil {
			return err
		}
		mac, err := s.eng.MAC(ct, da, newMajor, newMinor)
		if err != nil {
			return err
		}
		s.convDevMACs[secIdx] = mac
		bump(&s.stats.OverflowReEncryptions)
	}
	return nil
}

// convAccess performs one resident-sector access under the conventional
// model. All crypto uses the *device* address while the data is resident.
func (s *System) convAccess(homeAddr HomeAddr, devAddr DevAddr, fi int, out []byte, isWrite bool, in []byte) error {
	ct := s.devData[devAddr : devAddr+32]
	if !isWrite {
		major, minor, err := s.convDevPair(devAddr)
		if err != nil {
			return err
		}
		bump(&s.frameState(fi).macVerifies)
		if !s.eng.VerifyMAC(ct, uint64(devAddr), major, minor, s.convDevMACs[devAddr.Sector(s.geo.SectorSize)]) {
			return fmt.Errorf("%w: device address %#x", ErrIntegrity, uint64(devAddr))
		}
		return s.eng.DecryptSector(out, ct, uint64(devAddr), major, minor)
	}
	major, minor, err := s.convBumpDev(devAddr)
	if err != nil {
		return err
	}
	if err := s.eng.EncryptSector(ct, in, uint64(devAddr), major, minor); err != nil {
		return err
	}
	mac, err := s.eng.MAC(ct, uint64(devAddr), major, minor)
	if err != nil {
		return err
	}
	s.convDevMACs[devAddr.Sector(s.geo.SectorSize)] = mac
	s.frames[fi].dirty |= 1 << uint(s.chunkInPage(homeAddr))
	return nil
}

// convMigrateIn moves a page into a frame: every sector is MAC-verified and
// decrypted under its home metadata, then re-encrypted under fresh device
// metadata. These are the relocation re-encryptions Salus eliminates.
func (s *System) convMigrateIn(page, fi int, src, dst []byte) error {
	ss := s.geo.SectorSize
	pt := make([]byte, ss)
	for i := 0; i < s.geo.SectorsPerPage(); i++ {
		if s.poisoned[page*s.geo.ChunksPerPage()+i*ss/s.geo.ChunkSize] {
			// Quarantined home chunk: its data is lost, so the sector is
			// neither verified nor moved. Accesses to it are refused before
			// they reach the frame copy.
			bump(&s.stats.PoisonSkippedRelocations)
			continue
		}
		ha := uint64(page*s.geo.PageSize + i*ss)
		da := uint64(fi*s.geo.PageSize + i*ss)
		srcCT := src[i*ss : (i+1)*ss]
		major, minor, err := s.convHomePair(HomeAddr(ha))
		if err != nil {
			return err
		}
		bump(&s.frameState(fi).macVerifies)
		if !s.eng.VerifyMAC(srcCT, ha, major, minor, s.convCXLMACs[int(ha)/ss]) {
			return fmt.Errorf("%w: home address %#x during migration", ErrIntegrity, ha)
		}
		if err := s.eng.DecryptSector(pt, srcCT, ha, major, minor); err != nil {
			return err
		}
		dMajor, dMinor, err := s.convBumpDev(DevAddr(da))
		if err != nil {
			return err
		}
		dstCT := dst[i*ss : (i+1)*ss]
		if err := s.eng.EncryptSector(dstCT, pt, da, dMajor, dMinor); err != nil {
			return err
		}
		mac, err := s.eng.MAC(dstCT, da, dMajor, dMinor)
		if err != nil {
			return err
		}
		s.convDevMACs[int(da)/ss] = mac
		bump(&s.stats.RelocationReEncryptions)
	}
	return nil
}

// convEvict writes the whole page back (GPU page tables have no dirty bit,
// so the conventional model cannot skip clean data), decrypting with
// device metadata and re-encrypting with home metadata.
func (s *System) convEvict(fi int) error {
	if err := s.gateEvictWrites(fi, true); err != nil {
		return err
	}
	f := &s.frames[fi]
	page := f.homePage
	ss := s.geo.SectorSize
	pt := make([]byte, ss)
	bump(&s.stats.FullPageWritebacks)
	for i := 0; i < s.geo.SectorsPerPage(); i++ {
		if s.poisoned[page*s.geo.ChunksPerPage()+i*ss/s.geo.ChunkSize] {
			// Quarantined home chunk: the writeback target (or, for chunks
			// skipped on the way in, the frame copy) is invalid — drop the
			// sector and account for it.
			bump(&s.stats.PoisonSkippedRelocations)
			continue
		}
		ha := uint64(page*s.geo.PageSize + i*ss)
		da := uint64(fi*s.geo.PageSize + i*ss)
		ct := s.devData[da : da+uint64(ss)]
		major, minor, err := s.convDevPair(DevAddr(da))
		if err != nil {
			return err
		}
		bump(&s.frameState(fi).macVerifies)
		if !s.eng.VerifyMAC(ct, da, major, minor, s.convDevMACs[int(da)/ss]) {
			return fmt.Errorf("%w: device address %#x during eviction", ErrIntegrity, da)
		}
		if err := s.eng.DecryptSector(pt, ct, da, major, minor); err != nil {
			return err
		}
		hMajor, hMinor, err := s.convBumpHome(HomeAddr(ha))
		if err != nil {
			return err
		}
		dstCT := s.cxlData[ha : ha+uint64(ss)]
		if err := s.eng.EncryptSector(dstCT, pt, ha, hMajor, hMinor); err != nil {
			return err
		}
		mac, err := s.eng.MAC(dstCT, ha, hMajor, hMinor)
		if err != nil {
			return err
		}
		s.convCXLMACs[int(ha)/ss] = mac
		bump(&s.stats.RelocationReEncryptions)
	}
	return nil
}
