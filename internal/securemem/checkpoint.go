package securemem

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sort"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/security/counters"
	"github.com/salus-sim/salus/internal/security/maclib"
	"github.com/salus-sim/salus/internal/sim"
)

// Incremental checkpointing (ModelSalus). Where Suspend serialises the
// whole home tier into a one-shot image, Checkpoint appends only the
// pages whose home-tier security state changed since the last checkpoint
// to a crash.Journal, as one epoch committed with the journal's two-phase
// protocol. The epoch number is monotonic TCB state carried in the
// TrustedRoot; Recover replays the journal strictly up to the trusted
// epoch, so a crashed checkpoint is invisible and a replayed stale
// journal is rejected as a rollback.
//
// Pages never touched since New need no records at all: the initial
// encryption is a deterministic function of the keys, so recovery
// re-creates their exact home-tier bytes (the Replayer encrypts just the
// pages no record covers).

// RecordPage is the journal record type of one page checkpoint record.
// Payload layout (little-endian):
//
//	[0:8]   home page index
//	[8:..]  PageSize bytes of home ciphertext
//	[..]    BlocksPerPage × 32 B MAC sector encodings
//	[..]    ChunksPerPage × 4 B collapsed majors
//	[..]    1 B split flag
//	[..]    if split: ChunksPerPage × (1 B dirty + 32 B split sector)
const RecordPage byte = 0x01

// checkpointCommitCycles is the fixed latency charged per Checkpoint for
// the two durability barriers of the commit protocol.
const checkpointCommitCycles = 128

// ErrJournalRequired reports a Checkpoint call without a journal.
var ErrJournalRequired = errors.New("securemem: Checkpoint requires a journal")

// AttachClock charges persistence work (checkpoint serialisation and
// commit barriers) to a sim clock. AttachFaults also sets the clock; use
// AttachClock when no fault injector is armed.
func (s *System) AttachClock(clock *sim.Engine) { s.clock = clock }

// Epoch returns the checkpoint epoch of the system: the epoch the next
// successful Checkpoint will commit as epoch+1.
func (s *System) Epoch() uint64 { return s.epoch }

// markCkptDirty records that a page's home-tier security state changed
// and must ride the next checkpoint epoch. It is called from the two
// chokepoints every home mutation funnels through: storeHomeMAC (data and
// MAC changes) and salusSetHomeMajor (counter changes).
func (s *System) markCkptDirty(page int) {
	if s.ckptDirty != nil && page >= 0 && page < len(s.ckptDirty) {
		s.ckptDirty[page] = true
	}
}

// Checkpoint appends one epoch of dirty-page records to the journal and
// commits it, returning the new trusted root (tree roots, badblock list,
// and the committed epoch) to be stored in the TCB. Dirty chunks of
// resident pages are first collapsed and written back home in place —
// residency and device counter state survive, so the running system is
// undisturbed beyond the writeback.
//
// A checkpoint with no dirty pages commits an empty epoch: just the
// commit record, so state continuity advances even across idle periods.
//
// On error the epoch number is still consumed: a retry commits under a
// fresh epoch and Recover discards the abandoned records, so a partially
// written epoch can never alias a later complete one.
func (s *System) Checkpoint(j *crash.Journal) (TrustedRoot, error) {
	var root TrustedRoot
	if s.cfg.Model != ModelSalus {
		return root, errors.New("securemem: Checkpoint requires ModelSalus")
	}
	if j == nil {
		return root, ErrJournalRequired
	}
	// Consult the link for every home writeback this epoch needs before
	// anything (including the epoch number) moves: a checkpoint that
	// cannot reach the home tier is an atomic typed no-op, never a
	// half-written epoch with cleared dirty bits.
	if err := s.linkPrecheckCheckpoint(); err != nil {
		return root, err
	}
	epoch := s.epoch + 1
	s.epoch = epoch // consumed even on failure; see above
	startBytes := j.BytesWritten()

	var pages []int
	for p, d := range s.ckptDirty {
		if d {
			pages = append(pages, p)
		}
	}
	sort.Ints(pages)
	for _, page := range pages {
		if err := s.checkpointWriteback(page); err != nil {
			return root, err
		}
		if err := j.Append(RecordPage, epoch, s.encodePageRecord(page)); err != nil {
			return root, err
		}
	}
	if err := j.Commit(epoch); err != nil {
		return root, err
	}
	for _, page := range pages {
		s.ckptDirty[page] = false
	}
	bytes := j.BytesWritten() - startBytes
	bump(&s.stats.Checkpoints)
	bumpN(&s.stats.CheckpointPages, uint64(len(pages)))
	bumpN(&s.stats.CheckpointBytes, bytes)
	cycles := bytes/uint64(s.geo.SectorSize) + checkpointCommitCycles
	bumpN(&s.stats.CheckpointCycles, cycles)
	if s.clock != nil {
		s.clock.Advance(sim.Cycle(cycles))
	}

	root.Epoch = epoch
	root.CXLRoot = s.cxlTree.Root()
	if s.cxlSplit != nil {
		root.HasSplit = true
		root.SplitRoot = s.splitTree.Root()
	}
	root.PoisonedChunks = s.PoisonedChunks()
	root.QuarantinedFrames = s.QuarantinedFrames()
	root.PinnedPages = s.PinnedPages()
	return root, nil
}

// FullCheckpoint marks every home page checkpoint-dirty and commits one
// epoch carrying the whole home tier. Where Checkpoint ships only the
// incremental delta since the previous epoch, a full checkpoint makes
// the journal self-contained from this epoch on: a Recover (or a
// migration destination) replaying it needs no earlier journal to
// reconstruct the complete state. This is the bootstrap record set of a
// live migration's first sync round — later delta rounds ride ordinary
// Checkpoint epochs on the same journal.
func (s *System) FullCheckpoint(j *crash.Journal) (TrustedRoot, error) {
	if s.cfg.Model != ModelSalus {
		return TrustedRoot{}, errors.New("securemem: FullCheckpoint requires ModelSalus")
	}
	for p := range s.ckptDirty {
		s.ckptDirty[p] = true
	}
	return s.Checkpoint(j)
}

// checkpointWriteback collapses the dirty resident chunks of a page home
// in place, so the home tier holds the page's current state before it is
// journaled. Unlike salusEvict the page stays resident with its device
// counter state live (post-collapse the group equals its fetched-fresh
// form), and the work is accounted as CheckpointWritebacks — eviction
// accounting stays untouched.
func (s *System) checkpointWriteback(page int) error {
	fi := s.pageTable[page]
	if fi < 0 {
		return nil
	}
	f := &s.frames[fi]
	if f.dirty == 0 {
		return nil
	}
	cs := s.geo.ChunkSize
	ss := s.geo.SectorSize
	pt := make([]byte, ss)
	for c := 0; c < s.geo.ChunksPerPage(); c++ {
		if f.dirty&(1<<uint(c)) == 0 {
			continue
		}
		homeChunk := page*s.geo.ChunksPerPage() + c
		if s.poisoned[homeChunk] {
			// Data already lost; nothing to persist.
			f.dirty &^= 1 << uint(c)
			continue
		}
		bump(&s.stats.CheckpointWritebacks)
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
		for b := 0; b < s.geo.BlocksPerChunk(); b++ {
			blockIdx := int(chunkHomeBase)/s.geo.BlockSize + b
			s.macSectors[blockIdx].Major = newMajor
		}
		// The collapsed group stays live on the device side; refresh its
		// tree leaf so later device accesses verify.
		if err := s.salusDevTreeUpdate(gi); err != nil {
			return err
		}
		f.dirty &^= 1 << uint(c)
	}
	return nil
}

// encodePageRecord serialises the home-tier state of one page.
func (s *System) encodePageRecord(page int) []byte {
	g := s.geo
	var buf []byte
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], uint64(page))
	buf = append(buf, tmp[:]...)
	buf = append(buf, s.cxlData[page*g.PageSize:(page+1)*g.PageSize]...)
	blockBase := page * g.BlocksPerPage()
	for b := 0; b < g.BlocksPerPage(); b++ {
		enc := s.macSectors[blockBase+b].Encode()
		buf = append(buf, enc[:]...)
	}
	chunkBase := page * g.ChunksPerPage()
	for c := 0; c < g.ChunksPerPage(); c++ {
		chunk := chunkBase + c
		major := s.collapsed[chunk/counters.CollapsedMajors].Majors[chunk%counters.CollapsedMajors]
		var m [4]byte
		binary.LittleEndian.PutUint32(m[:], major)
		buf = append(buf, m[:]...)
	}
	if s.cxlSplit == nil {
		buf = append(buf, 0)
		return buf
	}
	buf = append(buf, 1)
	for c := 0; c < g.ChunksPerPage(); c++ {
		chunk := chunkBase + c
		if s.splitDirty[chunk] {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		enc := s.cxlSplit[chunk].Encode()
		buf = append(buf, enc[:]...)
	}
	return buf
}

// pageRecordLen returns the two valid lengths of a page record payload.
func pageRecordLen(g config.Geometry) (plain, split int) {
	plain = 8 + g.PageSize + g.BlocksPerPage()*32 + g.ChunksPerPage()*4 + 1
	split = plain + g.ChunksPerPage()*33
	return plain, split
}

// Recover reconstructs a Salus system from a checkpoint journal and its
// trusted root. The journal is untrusted: framing damage before the
// trusted epoch's commit surfaces as crash.ErrTornCheckpoint, a journal
// whose commits stop short of the trusted epoch as crash.ErrRollback, and
// a journal whose counters disagree with the trusted tree roots as
// ErrFreshness. cfg and keys must match the checkpointed system's
// (Config/geometry disagreement shows up as record-size or root
// mismatches, both typed). It is one Replayer pass: the whole journal is
// one delta.
func Recover(cfg Config, journal []byte, root TrustedRoot) (*System, error) {
	r, err := NewReplayer(cfg)
	if err != nil {
		return nil, err
	}
	if err := r.Apply(journal, root); err != nil {
		r.Discard()
		return nil, err
	}
	return r.Finish()
}

// errReplayerSpent reports a Replayer used after Finish or Discard.
var errReplayerSpent = errors.New("securemem: replayer already finished or discarded")

// Replayer rebuilds a Salus system from its checkpoint journal one
// committed delta at a time. It stages the system in private buffers,
// so cfg.Backing is not touched until Finish installs the result there.
// Each Apply replays one journal delta, updates only the tree leaves its
// records touched, and holds the counters to that delta's trusted root.
// Pages no record covers keep the deterministic initial state, whose
// encryption is deferred to the first StateDigest or Finish: no page is
// encrypted only to be overwritten by a record, and a journal that
// covers every page (a full checkpoint) encrypts nothing.
//
// The first failed Apply latches: the staged state may be half-applied
// and every later call returns the same error.
type Replayer struct {
	target  *Backing // cfg.Backing: where Finish installs the home tier
	s       *System  // staged system; nil once finished or discarded
	covered []bool   // home page -> holds replayed or initial ciphertext
	err     error
}

// NewReplayer stages an empty Salus system for cfg at epoch 0. Nothing
// is encrypted yet.
func NewReplayer(cfg Config) (*Replayer, error) {
	if cfg.Model != ModelSalus {
		return nil, errors.New("securemem: Recover requires ModelSalus")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	staged := cfg
	staged.Backing = nil
	s, err := newBare(staged)
	if err != nil {
		return nil, err
	}
	return &Replayer{target: cfg.Backing, s: s, covered: make([]bool, cfg.TotalPages)}, nil
}

// Apply replays the committed epochs of delta, which must start right
// after the staged epoch's commit record and end at root.Epoch's, and
// verifies the result against root (tree roots, then the badblock list
// and epoch are adopted). Errors are typed as Recover's.
func (r *Replayer) Apply(delta []byte, root TrustedRoot) error {
	if r.err != nil {
		return r.err
	}
	if r.s == nil {
		return errReplayerSpent
	}
	if err := r.apply(delta, root); err != nil {
		r.err = err
		return err
	}
	return nil
}

func (r *Replayer) apply(delta []byte, root TrustedRoot) error {
	s := r.s
	recs, err := crash.ReplaySince(delta, s.epoch, root.Epoch)
	if err != nil {
		return err
	}
	g := s.geo
	plainLen, splitLen := pageRecordLen(g)
	leaves := make([]bool, len(s.collapsed))
	var splitChunks []bool
	for _, rec := range recs {
		if rec.Type != RecordPage {
			return fmt.Errorf("%w: unknown record type %#x", crash.ErrTornCheckpoint, rec.Type)
		}
		hasSplit := false
		switch len(rec.Payload) {
		case plainLen:
		case splitLen:
			hasSplit = true
		default:
			return fmt.Errorf("%w: page record of %d bytes, want %d or %d",
				crash.ErrTornCheckpoint, len(rec.Payload), plainLen, splitLen)
		}
		page := binary.LittleEndian.Uint64(rec.Payload)
		if page >= uint64(s.cfg.TotalPages) {
			return fmt.Errorf("%w: page record for out-of-range page %d", crash.ErrTornCheckpoint, page)
		}
		p := int(page)
		r.covered[p] = true
		off := 8
		copy(s.cxlData[p*g.PageSize:(p+1)*g.PageSize], rec.Payload[off:off+g.PageSize])
		off += g.PageSize
		blockBase := p * g.BlocksPerPage()
		var sector [32]byte
		for b := 0; b < g.BlocksPerPage(); b++ {
			copy(sector[:], rec.Payload[off:off+32])
			s.macSectors[blockBase+b] = maclib.Decode(sector)
			off += 32
		}
		chunkBase := p * g.ChunksPerPage()
		for c := 0; c < g.ChunksPerPage(); c++ {
			chunk := chunkBase + c
			major := binary.LittleEndian.Uint32(rec.Payload[off:])
			s.collapsed[chunk/counters.CollapsedMajors].Majors[chunk%counters.CollapsedMajors] = major
			leaves[chunk/counters.CollapsedMajors] = true
			off += 4
		}
		off++ // split flag, already decoded from the length
		if hasSplit {
			if err := s.ensureSplitState(); err != nil {
				return err
			}
			if splitChunks == nil {
				splitChunks = make([]bool, len(s.cxlSplit))
			}
			for c := 0; c < g.ChunksPerPage(); c++ {
				chunk := chunkBase + c
				s.splitDirty[chunk] = rec.Payload[off] == 1
				off++
				copy(sector[:], rec.Payload[off:off+32])
				s.cxlSplit[chunk] = counters.DecodeCXLSplit(sector)
				off += 32
				splitChunks[chunk] = true
			}
		}
	}
	for i, touched := range leaves {
		if touched {
			if err := s.cxlTree.Update(i, s.collapsed[i].Encode()); err != nil {
				return err
			}
		}
	}
	if root.HasSplit && s.cxlSplit == nil {
		// Split state existed but no committed record carried it (it was
		// allocated but never populated); materialise the pristine tree so
		// the root can be verified.
		if err := s.ensureSplitState(); err != nil {
			return err
		}
	}
	for chunk, touched := range splitChunks {
		if touched {
			if err := s.splitTree.Update(chunk, s.cxlSplit[chunk].Encode()); err != nil {
				return err
			}
		}
	}
	// Verify the replayed counter state against the TCB roots; a journal
	// that replays cleanly but encodes different counters is a forgery.
	if s.cxlTree.Root() != root.CXLRoot {
		return fmt.Errorf("%w: recovered counters do not match trusted root", ErrFreshness)
	}
	if root.HasSplit {
		if s.splitTree == nil || s.splitTree.Root() != root.SplitRoot {
			return fmt.Errorf("%w: recovered split counters do not match trusted root", ErrFreshness)
		}
	} else if s.cxlSplit != nil {
		return fmt.Errorf("%w: journal carries split state the trusted root does not know", ErrFreshness)
	}
	if err := s.applyTrustedBadblocks(root); err != nil {
		return err
	}
	s.epoch = root.Epoch
	return nil
}

// seal encrypts the pages no record covered under the initial counters,
// exactly as New would have left them.
func (r *Replayer) seal() error {
	if err := r.s.encryptZeroPages(r.covered); err != nil {
		return err
	}
	for i := range r.covered {
		r.covered[i] = true
	}
	return nil
}

// StateDigest returns the StateDigest the staged system will have once
// Finish installs it, so a caller can hold the staged state to an
// attested digest before anything reaches the backing.
func (r *Replayer) StateDigest() ([32]byte, error) {
	if r.err != nil {
		return [32]byte{}, r.err
	}
	if r.s == nil {
		return [32]byte{}, errReplayerSpent
	}
	if err := r.seal(); err != nil {
		r.err = err
		return [32]byte{}, err
	}
	return r.s.StateDigest(), nil
}

// Finish completes the staged system and returns it. With a Backing in
// the config, the home tier is copied into its window, the device window
// is zeroed, and the private staging buffer is scrubbed, so the returned
// system's ciphertext lives only in the backing. The Replayer is spent
// afterwards.
func (r *Replayer) Finish() (*System, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.s == nil {
		return nil, errReplayerSpent
	}
	if err := r.seal(); err != nil {
		r.err = err
		return nil, err
	}
	s := r.s
	r.s = nil
	s.ckptDirty = make([]bool, s.cfg.TotalPages)
	if b := r.target; b != nil {
		copy(b.Home, s.cxlData)
		clear(b.Device)
		clear(s.cxlData)
		s.cxlData, s.devData = b.Home, b.Device
		s.cfg.Backing = b
	}
	return s, nil
}

// Discard scrubs the staged home tier and spends the Replayer; the
// backing was never touched. The staged device tier needs no scrub:
// replay never makes a page resident. Discard after Finish is a no-op.
func (r *Replayer) Discard() {
	if r.s == nil {
		return
	}
	clear(r.s.cxlData)
	r.s = nil
}

// StateDigest hashes the durable (home-tier plus TCB badblock) state of a
// Salus system: everything Checkpoint persists and Recover reconstructs.
// Two systems with equal digests are byte-identical from the journal's
// point of view; resident-page device state is excluded because it is
// rebuilt on demand from the home state. Dirty resident chunks not yet
// written back make the digest diverge from a recovered twin — call it
// right after Checkpoint, when the home tier is current.
func (s *System) StateDigest() [32]byte {
	h := sha256.New()
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], s.epoch)
	h.Write(tmp[:])
	h.Write(s.cxlData)
	for i := range s.macSectors {
		enc := s.macSectors[i].Encode()
		h.Write(enc[:])
	}
	for i := range s.collapsed {
		enc := s.collapsed[i].Encode()
		h.Write(enc[:])
	}
	if s.cxlSplit != nil {
		h.Write([]byte{1})
		for i := range s.cxlSplit {
			enc := s.cxlSplit[i].Encode()
			h.Write(enc[:])
			if s.splitDirty[i] {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
		}
	} else {
		h.Write([]byte{0})
	}
	writeInts := func(vs []int) {
		binary.LittleEndian.PutUint64(tmp[:], uint64(len(vs)))
		h.Write(tmp[:])
		for _, v := range vs {
			binary.LittleEndian.PutUint64(tmp[:], uint64(v))
			h.Write(tmp[:])
		}
	}
	writeInts(s.PoisonedChunks())
	writeInts(s.QuarantinedFrames())
	writeInts(s.PinnedPages())
	var out [32]byte
	h.Sum(out[:0])
	return out
}
