package securemem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"

	"github.com/salus-sim/salus/internal/security/counters"
	"github.com/salus-sim/salus/internal/security/maclib"
)

// Suspend/resume support. A suspended System is split into two artifacts:
//
//   - an untrusted image: everything that lives in (or could live in)
//     off-chip memory — ciphertext, MAC sectors, counter blocks. It can be
//     written to any storage; tampering with it is detected on resume.
//   - a trusted root: the TCB state (keys stay with the caller; the root
//     digests of the integrity trees travel here). It must be kept in
//     trusted storage, exactly like the on-chip root register it models.
//
// Resume reconstructs a System from the configuration, keys, image, and
// root. A mismatched or replayed image fails verification either at
// Resume (tree roots) or at first access (MACs).

// snapshotMagic identifies the image format. Version 2 added the full
// geometry to the header so a Resume under a mismatched configuration is
// rejected up front (ErrImageMismatch) instead of mis-slicing sections.
var snapshotMagic = []byte("SALUSIMG2")

// ErrImageMismatch reports an image whose magic or recorded dimensions
// disagree with the configuration passed to Resume.
var ErrImageMismatch = errors.New("securemem: image does not match configuration")

// TrustedRoot is the TCB state of a suspended system. Besides the tree
// roots it carries the checkpoint epoch — the monotonic counter that
// pins which journal prefix Recover may accept — and the
// fault-containment badblock list: quarantined chunks, retired frames,
// and pinned pages must survive a suspend/resume cycle, or a resumed
// system would silently serve stale home bytes for data that was lost to
// an uncorrectable fault.
type TrustedRoot struct {
	Epoch     uint64 // last committed checkpoint epoch
	CXLRoot   [32]byte
	SplitRoot [32]byte // zero when the split state was never used
	HasSplit  bool

	PoisonedChunks    []int
	QuarantinedFrames []int
	PinnedPages       []int
}

// Suspend flushes the device tier and serialises the untrusted state. It
// returns the image and the trusted root. Only ModelSalus systems support
// suspend (the conventional model's device-tier metadata cannot outlive
// the device contents it is bound to).
func (s *System) Suspend() (image []byte, root TrustedRoot, err error) {
	if s.cfg.Model != ModelSalus {
		return nil, root, errors.New("securemem: Suspend requires ModelSalus")
	}
	// Everything must be home: flush the device tier. Writebacks parked
	// by a link outage cannot be serialised — their home copies are
	// stale — so a suspend must wait for the queue to drain.
	if err := s.Flush(); err != nil {
		return nil, root, err
	}
	if n := s.wbqLen(); n > 0 {
		return nil, root, fmt.Errorf("%w: %d parked", ErrWritebacksPending, n)
	}
	var buf bytes.Buffer
	buf.Write(snapshotMagic)
	w64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w64(uint64(s.cfg.TotalPages))
	w64(uint64(s.cfg.DevicePages))
	w64(uint64(s.geo.SectorSize))
	w64(uint64(s.geo.BlockSize))
	w64(uint64(s.geo.ChunkSize))
	w64(uint64(s.geo.PageSize))
	buf.Write(s.cxlData)
	for i := range s.macSectors {
		img := s.macSectors[i].Encode()
		buf.Write(img[:])
	}
	for i := range s.collapsed {
		img := s.collapsed[i].Encode()
		buf.Write(img[:])
	}
	if s.cxlSplit != nil {
		w64(1)
		for i := range s.cxlSplit {
			img := s.cxlSplit[i].Encode()
			buf.Write(img[:])
		}
		for _, d := range s.splitDirty {
			if d {
				buf.WriteByte(1)
			} else {
				buf.WriteByte(0)
			}
		}
		root.SplitRoot = s.splitTree.Root()
		root.HasSplit = true
	} else {
		w64(0)
	}
	root.Epoch = s.epoch
	root.CXLRoot = s.cxlTree.Root()
	root.PoisonedChunks = s.PoisonedChunks()
	root.QuarantinedFrames = s.QuarantinedFrames()
	root.PinnedPages = s.PinnedPages()
	return buf.Bytes(), root, nil
}

// Resume reconstructs a suspended system. cfg and the keys must match the
// suspended system's; the image is untrusted and is verified against the
// trusted root before use.
func Resume(cfg Config, image []byte, root TrustedRoot) (*System, error) {
	if cfg.Model != ModelSalus {
		return nil, errors.New("securemem: Resume requires ModelSalus")
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	r := bytes.NewReader(image)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, snapshotMagic) {
		return nil, fmt.Errorf("%w: not a salus image", ErrImageMismatch)
	}
	var hasSplit uint64
	rd64 := func(v *uint64) error { return binary.Read(r, binary.LittleEndian, v) }
	// The header pins every dimension the section offsets depend on; a
	// disagreement with cfg means the image belongs to a different system
	// and slicing it with cfg's layout would mis-index.
	dims := []struct {
		name string
		want int
	}{
		{"total pages", cfg.TotalPages},
		{"device pages", cfg.DevicePages},
		{"sector size", cfg.Geometry.SectorSize},
		{"block size", cfg.Geometry.BlockSize},
		{"chunk size", cfg.Geometry.ChunkSize},
		{"page size", cfg.Geometry.PageSize},
	}
	for _, d := range dims {
		var v uint64
		if err := rd64(&v); err != nil {
			return nil, fmt.Errorf("%w: truncated header", ErrImageMismatch)
		}
		if v != uint64(d.want) {
			return nil, fmt.Errorf("%w: image %s %d, config %d", ErrImageMismatch, d.name, v, d.want)
		}
	}
	if _, err := io.ReadFull(r, s.cxlData); err != nil {
		return nil, fmt.Errorf("securemem: truncated data section: %v", err)
	}
	var sector [32]byte
	for i := range s.macSectors {
		if _, err := io.ReadFull(r, sector[:]); err != nil {
			return nil, fmt.Errorf("securemem: truncated MAC section: %v", err)
		}
		s.macSectors[i] = maclib.Decode(sector)
	}
	for i := range s.collapsed {
		if _, err := io.ReadFull(r, sector[:]); err != nil {
			return nil, fmt.Errorf("securemem: truncated counter section: %v", err)
		}
		s.collapsed[i] = counters.DecodeCollapsed(sector)
		if err := s.cxlTree.Update(i, sector); err != nil {
			return nil, err
		}
	}
	if err := rd64(&hasSplit); err != nil {
		return nil, err
	}
	if hasSplit == 1 {
		if err := s.ensureSplitState(); err != nil {
			return nil, err
		}
		for i := range s.cxlSplit {
			if _, err := io.ReadFull(r, sector[:]); err != nil {
				return nil, fmt.Errorf("securemem: truncated split section: %v", err)
			}
			s.cxlSplit[i] = counters.DecodeCXLSplit(sector)
			if err := s.splitTree.Update(i, sector); err != nil {
				return nil, err
			}
		}
		dirt := make([]byte, len(s.splitDirty))
		if _, err := io.ReadFull(r, dirt); err != nil {
			return nil, fmt.Errorf("securemem: truncated split-dirty section: %v", err)
		}
		for i, b := range dirt {
			s.splitDirty[i] = b == 1
		}
	}
	// Verify the rebuilt trees against the trusted root. A tampered or
	// replayed counter section produces a different root and is rejected
	// here; tampered data or MAC sections are caught by MAC verification
	// on first access.
	if s.cxlTree.Root() != root.CXLRoot {
		return nil, fmt.Errorf("%w: counter image does not match trusted root", ErrFreshness)
	}
	if root.HasSplit {
		if s.splitTree == nil || s.splitTree.Root() != root.SplitRoot {
			return nil, fmt.Errorf("%w: split-counter image does not match trusted root", ErrFreshness)
		}
	} else if hasSplit == 1 {
		return nil, fmt.Errorf("%w: image carries split state the trusted root does not know", ErrFreshness)
	}
	if err := s.applyTrustedBadblocks(root); err != nil {
		return nil, err
	}
	s.epoch = root.Epoch
	// The image restored pages the deterministic initial encryption knows
	// nothing about; any journal the caller checkpoints to next must carry
	// them all, and every digest leaf describes the replaced state.
	for i := range s.ckptDirty {
		s.ckptDirty[i] = true
	}
	s.markAllStale()
	return s, nil
}

// applyTrustedBadblocks restores the fault-containment badblock list from
// the TCB root, validating every index against the configuration (shared
// by Resume and Recover).
func (s *System) applyTrustedBadblocks(root TrustedRoot) error {
	// Restored badblocks are pre-existing state, not new faults: the
	// quarantine slices and their atomic counts are set directly, without
	// touching the ChunksPoisoned/PagesPinned fault counters.
	for _, c := range root.PoisonedChunks {
		if c < 0 || c >= s.cfg.TotalPages*s.geo.ChunksPerPage() {
			return fmt.Errorf("securemem: trusted root quarantines out-of-range chunk %d", c)
		}
		if !s.poisoned[c] {
			s.poisoned[c] = true
			atomic.AddUint64(&s.poisonedN, 1)
		}
	}
	for _, fi := range root.QuarantinedFrames {
		if fi < 0 || fi >= len(s.frames) {
			return fmt.Errorf("securemem: trusted root retires out-of-range frame %d", fi)
		}
		s.frames[fi].quarantined = true
	}
	for _, p := range root.PinnedPages {
		if p < 0 || p >= s.cfg.TotalPages {
			return fmt.Errorf("securemem: trusted root pins out-of-range page %d", p)
		}
		if !s.pinned[p] {
			s.pinned[p] = true
			atomic.AddUint64(&s.pinnedN, 1)
		}
	}
	return nil
}

// rootMagic identifies a marshalled TrustedRoot.
var rootMagic = []byte("SROOT1")

// maxRootList bounds the badblock list lengths UnmarshalTrustedRoot will
// allocate for; a hostile blob cannot demand more.
const maxRootList = 1 << 20

// MarshalBinary serialises the trusted root for storage alongside (but
// never inside) the untrusted image or journal. The encoding carries no
// secrets — but its integrity is the whole point, so it must live in
// trusted storage exactly like the struct it encodes.
func (r TrustedRoot) MarshalBinary() []byte {
	var buf bytes.Buffer
	buf.Write(rootMagic)
	w64 := func(v uint64) { _ = binary.Write(&buf, binary.LittleEndian, v) }
	w64(r.Epoch)
	buf.Write(r.CXLRoot[:])
	buf.Write(r.SplitRoot[:])
	if r.HasSplit {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	wlist := func(vs []int) {
		w64(uint64(len(vs)))
		for _, v := range vs {
			w64(uint64(v))
		}
	}
	wlist(r.PoisonedChunks)
	wlist(r.QuarantinedFrames)
	wlist(r.PinnedPages)
	return buf.Bytes()
}

// UnmarshalTrustedRoot parses a marshalled trusted root. It validates
// structure only (magic, lengths, bounded lists); semantic validation of
// the indices happens against the configuration when the root is used.
func UnmarshalTrustedRoot(data []byte) (TrustedRoot, error) {
	var root TrustedRoot
	r := bytes.NewReader(data)
	magic := make([]byte, len(rootMagic))
	if _, err := io.ReadFull(r, magic); err != nil || !bytes.Equal(magic, rootMagic) {
		return root, errors.New("securemem: not a trusted root")
	}
	rd64 := func(v *uint64) error { return binary.Read(r, binary.LittleEndian, v) }
	if err := rd64(&root.Epoch); err != nil {
		return root, fmt.Errorf("securemem: truncated trusted root: %v", err)
	}
	if _, err := io.ReadFull(r, root.CXLRoot[:]); err != nil {
		return root, fmt.Errorf("securemem: truncated trusted root: %v", err)
	}
	if _, err := io.ReadFull(r, root.SplitRoot[:]); err != nil {
		return root, fmt.Errorf("securemem: truncated trusted root: %v", err)
	}
	var flag [1]byte
	if _, err := io.ReadFull(r, flag[:]); err != nil {
		return root, fmt.Errorf("securemem: truncated trusted root: %v", err)
	}
	root.HasSplit = flag[0] == 1
	rdlist := func() ([]int, error) {
		var n uint64
		if err := rd64(&n); err != nil {
			return nil, fmt.Errorf("securemem: truncated trusted root: %v", err)
		}
		if n > maxRootList {
			return nil, fmt.Errorf("securemem: trusted root list of %d entries rejected", n)
		}
		if n == 0 {
			return nil, nil
		}
		vs := make([]int, n)
		for i := range vs {
			var v uint64
			if err := rd64(&v); err != nil {
				return nil, fmt.Errorf("securemem: truncated trusted root: %v", err)
			}
			vs[i] = int(v)
		}
		return vs, nil
	}
	var err error
	if root.PoisonedChunks, err = rdlist(); err != nil {
		return root, err
	}
	if root.QuarantinedFrames, err = rdlist(); err != nil {
		return root, err
	}
	if root.PinnedPages, err = rdlist(); err != nil {
		return root, err
	}
	if r.Len() != 0 {
		return root, errors.New("securemem: trailing bytes after trusted root")
	}
	return root, nil
}
