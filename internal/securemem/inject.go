package securemem

import "github.com/salus-sim/salus/internal/security/counters"

// Attack-injection surface. These methods model an attacker with physical
// access to the untrusted memories: they mutate stored state directly,
// bypassing the trusted access path, so tests and examples can demonstrate
// that the protection models detect snooping-resistance, spoofing,
// splicing, and replay. Each hook that changes home-tier state marks the
// digest leaves of the pages it touched stale, so the tamper moves
// StateDigest, but it is no checkpoint delta: the journal never carries
// it.

// RawHomeBytes returns a copy of the stored home-tier bytes at addr
// (ciphertext under the secure models). An attacker snooping the bus sees
// exactly this.
func (s *System) RawHomeBytes(addr HomeAddr, n int) []byte {
	if n < 0 || uint64(addr) > s.Size() || uint64(n) > s.Size()-uint64(addr) {
		return nil
	}
	out := make([]byte, n)
	copy(out, s.cxlData[addr:addr+HomeAddr(n)])
	return out
}

// CorruptHome flips a bit of the stored home-tier data (spoofing attack on
// the expansion memory) and reports whether addr was in range. A
// subsequent read of a non-resident page detects the flip via MAC
// verification.
func (s *System) CorruptHome(addr HomeAddr) bool {
	if uint64(addr) >= s.Size() {
		return false
	}
	s.cxlData[addr] ^= 0x01
	s.markStale(addr.Page(s.geo.PageSize))
	return true
}

// CorruptDevice flips a bit of the device-tier frame backing addr's page,
// if resident (spoofing attack on the device memory).
func (s *System) CorruptDevice(addr HomeAddr) bool {
	page := addr.Page(s.geo.PageSize)
	if uint64(addr) >= s.Size() || s.pageTable[page] < 0 {
		return false
	}
	fi := s.pageTable[page]
	off := FrameAddr(fi, s.geo.PageSize, addr.PageOffset(s.geo.PageSize))
	s.devData[off] ^= 0x01
	return true
}

// SpliceHome overwrites the stored bytes of dst's sector with those of
// src's sector (splicing attack: relocating valid ciphertext). Detected
// because the MAC binds the home address.
func (s *System) SpliceHome(dst, src HomeAddr) {
	ss := uint64(s.geo.SectorSize)
	d := uint64(dst) / ss * ss
	c := uint64(src) / ss * ss
	if d+ss > s.Size() || c+ss > s.Size() {
		return
	}
	copy(s.cxlData[d:d+ss], s.cxlData[c:c+ss])
	s.markStale(HomeAddr(d).Page(s.geo.PageSize))
}

// SpliceDevice overwrites the device-tier bytes backing dst's sector with
// the device-tier bytes backing src's sector (splicing attack relocating
// valid ciphertext inside the device memory). It reports whether the copy
// happened: both pages must be device-resident and in range. The secure
// models detect the splice because the MAC binds the address — the home
// address under Salus, the device address under the conventional model.
func (s *System) SpliceDevice(dst, src HomeAddr) bool {
	ss := uint64(s.geo.SectorSize)
	d := uint64(dst) / ss * ss
	c := uint64(src) / ss * ss
	if d+ss > s.Size() || c+ss > s.Size() {
		return false
	}
	dfi := s.pageTable[HomeAddr(d).Page(s.geo.PageSize)]
	sfi := s.pageTable[HomeAddr(c).Page(s.geo.PageSize)]
	if dfi < 0 || sfi < 0 {
		return false
	}
	dOff := FrameAddr(dfi, s.geo.PageSize, HomeAddr(d).PageOffset(s.geo.PageSize))
	sOff := FrameAddr(sfi, s.geo.PageSize, HomeAddr(c).PageOffset(s.geo.PageSize))
	copy(s.devData[dOff:dOff+DevAddr(ss)], s.devData[sOff:sOff+DevAddr(ss)])
	return true
}

// ChunkSnapshot captures everything an attacker would record to later
// replay a home-tier chunk: ciphertext, MAC sectors, and the collapsed
// counter state.
type ChunkSnapshot struct {
	homeChunk int
	data      []byte
	macs      []maclibSector
	collapsed counters.CollapsedSector
	convCtrs  counters.ConventionalSector
	convMACs  []uint64
}

type maclibSector struct {
	macs  [4]uint64
	major uint32
}

// SnapshotHomeChunk records the full untrusted state of the chunk holding
// addr, for a later replay attempt.
func (s *System) SnapshotHomeChunk(addr HomeAddr) ChunkSnapshot {
	cs := s.geo.ChunkSize
	chunk := addr.Chunk(cs)
	snap := ChunkSnapshot{homeChunk: chunk}
	snap.data = append(snap.data, s.cxlData[chunk*cs:(chunk+1)*cs]...)
	switch s.cfg.Model {
	case ModelSalus:
		for b := 0; b < s.geo.BlocksPerChunk(); b++ {
			idx := chunk*s.geo.BlocksPerChunk() + b
			snap.macs = append(snap.macs, maclibSector{macs: s.macSectors[idx].MACs, major: s.macSectors[idx].Major})
		}
		snap.collapsed = s.collapsed[chunk/counters.CollapsedMajors]
	case ModelConventional:
		firstSec := chunk * s.geo.SectorsPerChunk()
		snap.convCtrs = s.convCXLCtrs[firstSec/counters.ConvMinors]
		for k := 0; k < s.geo.SectorsPerChunk(); k++ {
			snap.convMACs = append(snap.convMACs, s.convCXLMACs[firstSec+k])
		}
	}
	return snap
}

// ReplayHomeChunk restores a previously captured chunk snapshot into the
// untrusted stores WITHOUT updating the integrity trees — exactly what a
// physical replay attack can and cannot touch. The trees live in (or are
// rooted in) the TCB, so a later read fails freshness verification.
func (s *System) ReplayHomeChunk(snap ChunkSnapshot) {
	cs := s.geo.ChunkSize
	chunk := snap.homeChunk
	copy(s.cxlData[chunk*cs:(chunk+1)*cs], snap.data)
	s.markStale(chunk / s.geo.ChunksPerPage())
	switch s.cfg.Model {
	case ModelSalus:
		for b, m := range snap.macs {
			idx := chunk*s.geo.BlocksPerChunk() + b
			s.macSectors[idx].MACs = m.macs
			s.macSectors[idx].Major = m.major
		}
		s.collapsed[chunk/counters.CollapsedMajors] = snap.collapsed
	case ModelConventional:
		firstSec := chunk * s.geo.SectorsPerChunk()
		s.convCXLCtrs[firstSec/counters.ConvMinors] = snap.convCtrs
		for k, m := range snap.convMACs {
			s.convCXLMACs[firstSec+k] = m
		}
	}
}
