package securemem

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
)

// TestStateDigestCacheMatchesScratch is the differential test of the
// digest leaf cache: seeded sequences of device-path writes (with the
// evictions four frames force), WriteThroughs (split enter and
// collapse), flushes, home and device poison faults, checkpoints,
// suspend/resume, key rotations, tamper hooks and journal replays.
// After every op the cached StateDigest must equal the one recomputed
// from the stored bytes; a stale mark missing anywhere on a mutation
// path shows up here.
func TestStateDigestCacheMatchesScratch(t *testing.T) {
	seen := map[string]int{}
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			digestDifferential(t, seed, seen)
		})
	}
	for _, op := range []string{"write", "writethrough", "flush", "checkpoint", "fault",
		"suspend/resume", "rekey", "tamper", "replay"} {
		if seen[op] == 0 {
			t.Errorf("no seed ran a %s op", op)
		}
	}
}

// digestJournal is a checkpoint journal cut after every commit, so it
// can be replayed delta by delta as a migration destination does.
type digestJournal struct {
	store *crash.MemStore
	j     *crash.Journal
	ends  []int // journal length after each committed epoch
	roots []TrustedRoot
}

func newDigestJournal() *digestJournal {
	store := crash.NewMemStore()
	return &digestJournal{store: store, j: crash.NewJournal(store)}
}

func (d *digestJournal) commit(t *testing.T, s *System, full bool) {
	t.Helper()
	var root TrustedRoot
	var err error
	if full {
		root, err = s.FullCheckpoint(d.j)
	} else {
		root, err = s.Checkpoint(d.j)
	}
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	d.ends = append(d.ends, int(d.j.BytesWritten()))
	d.roots = append(d.roots, root)
}

// replay rebuilds the system at the last committed epoch, applying one
// delta per epoch and holding the staged digest cache to the staged
// bytes after each.
func (d *digestJournal) replay(t *testing.T, cfg Config) *System {
	t.Helper()
	rep, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	journal := d.store.Bytes()
	from := 0
	for i, end := range d.ends {
		if err := rep.Apply(journal[from:end], d.roots[i]); err != nil {
			t.Fatalf("replay delta %d: %v", i, err)
		}
		from = end
		// The staged system is sealed only at the end, so check what
		// Apply promises: every page it replayed has a fresh leaf that
		// matches the page's bytes.
		checkLeaves(t, rep.s, rep.covered)
	}
	staged, err := rep.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if fresh := rep.s.StateDigestFromScratch(); staged != fresh {
		t.Fatal("staged digest cache differs from the staged bytes")
	}
	s, err := rep.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func digestDifferential(t *testing.T, seed int64, seen map[string]int) {
	const pages = 16
	cfg := salusCfg(pages, 4)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	jl := newDigestJournal()
	jl.commit(t, s, false)
	payload := func() []byte {
		data := make([]byte, 1+rng.Intn(300))
		rng.Read(data)
		return data
	}
	tolerate := func(op string, err error) {
		if err != nil && !errors.Is(err, ErrPoison) {
			t.Fatalf("%s: %v", op, err)
		}
	}
	for i := 0; i < 160; i++ {
		addr := HomeAddr(rng.Intn(pages*4096 - 300))
		var op string
		switch k := rng.Intn(16); {
		case k < 5:
			op = "write"
			tolerate(op, s.Write(addr, payload()))
		case k < 8:
			op = "writethrough"
			if data := payload(); !s.IsResident(addr) && !s.IsResident(addr+HomeAddr(len(data))-1) {
				tolerate(op, s.WriteThrough(addr, data))
			}
		case k == 8:
			op = "flush"
			tolerate(op, s.Flush())
		case k == 9:
			op = "checkpoint"
			jl.commit(t, s, false)
		case k == 10:
			op = "fault"
			tier := fault.TierHome
			if rng.Intn(2) == 0 {
				tier = fault.TierDevice
			}
			s.AttachFaults(fault.NewScriptPlan([]fault.Event{{Tier: tier, N: 1, Kind: fault.Poison}}), quickPolicy(), nil)
			tolerate(op, s.Write(addr, payload()))
			s.AttachFaults(nil, quickPolicy(), nil)
		case k == 11:
			op = "suspend/resume"
			image, r, err := s.Suspend()
			if err != nil {
				t.Fatalf("suspend: %v", err)
			}
			if s, err = Resume(cfg, image, r); err != nil {
				t.Fatalf("resume: %v", err)
			}
		case k == 12:
			op = "rekey"
			aes, mac := []byte(fmt.Sprintf("rekey-aes-%05d!", i)), []byte(fmt.Sprintf("rekey-mac-%d", i))
			if err := s.ReKey(aes, mac); err != nil {
				// ReKey does not skip quarantined chunks and refuses
				// a system that has any; it fails before any state
				// moves but the flush.
				if !errors.Is(err, ErrIntegrity) || len(s.PoisonedChunks()) == 0 {
					t.Fatalf("rekey: %v", err)
				}
				break
			}
			// Earlier epochs are under the old keys: start a journal
			// that is self-contained under the new ones.
			seen[op]++
			cfg.AESKey, cfg.MACKey = aes, mac
			jl = newDigestJournal()
			jl.commit(t, s, true)
		case k == 13:
			op = "tamper"
			switch rng.Intn(3) {
			case 0:
				s.CorruptHome(addr)
			case 1:
				s.SpliceHome(addr, HomeAddr(rng.Intn(pages*4096)))
			default:
				snap := s.SnapshotHomeChunk(addr)
				tolerate(op, s.Write(addr, payload()))
				tolerate(op, s.Flush())
				s.ReplayHomeChunk(snap)
			}
			checkDigest(t, s, fmt.Sprintf("op %d (%s)", i, op))
			seen[op]++
			// Roll the tamper back to the last committed epoch, so the
			// sequence goes on over a system that verifies.
			op = "replay"
			s = jl.replay(t, cfg)
		default:
			op = "replay"
			jl.commit(t, s, false)
			s = jl.replay(t, cfg)
		}
		checkDigest(t, s, fmt.Sprintf("op %d (%s)", i, op))
		if op != "rekey" {
			seen[op]++
		}
	}
}

// TestStateDigestCoversEveryField: a one-byte change to any field the
// digest covers — ciphertext, a MAC, a MAC sector's embedded major, a
// collapsed major, a split sector, a split dirty bit, the split flag,
// the epoch, and each badblock list — changes the digest, and undoing
// it restores the digest.
func TestStateDigestCoversEveryField(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 2)
	if err := s.Write(0, []byte("device path")); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteThrough(4096+300, []byte("split chunk")); err != nil {
		t.Fatal(err)
	}
	base := s.StateDigestFromScratch()
	flips := []struct {
		field string
		flip  func()
	}{
		{"ciphertext", func() { s.cxlData[2*4096+77] ^= 1 }},
		{"MAC", func() { s.macSectors[5].MACs[2] ^= 1 }},
		{"MAC sector major", func() { s.macSectors[40].Major ^= 1 }},
		{"collapsed major", func() { s.collapsed[1].Majors[3] ^= 1 }},
		{"split sector", func() { s.cxlSplit[17].Minors[1] ^= 1 }},
		{"split dirty bit", func() { s.splitDirty[30] = !s.splitDirty[30] }},
		{"epoch", func() { s.epoch ^= 1 }},
		{"poisoned chunks", func() { s.poisoned[9] = !s.poisoned[9] }},
		{"quarantined frames", func() { s.frames[1].quarantined = !s.frames[1].quarantined }},
		{"pinned pages", func() { s.pinned[3] = !s.pinned[3] }},
	}
	for _, f := range flips {
		f.flip()
		if s.StateDigestFromScratch() == base {
			t.Errorf("%s: a one-byte change left the digest unchanged", f.field)
		}
		f.flip()
		if s.StateDigestFromScratch() != base {
			t.Errorf("%s: undoing the change did not restore the digest", f.field)
		}
	}

	// The split flag: arming split state with no split chunk changes
	// every record, and the cached digest sees it.
	plain := newSys(t, ModelSalus, 4, 2)
	before := plain.StateDigest()
	if err := plain.ensureSplitState(); err != nil {
		t.Fatal(err)
	}
	if after := plain.StateDigest(); after == before || after != plain.StateDigestFromScratch() {
		t.Error("arming split state: cached digest did not move with the record layout")
	}
	// Equal states give equal digests: a twin built by the same ops.
	twin := newSys(t, ModelSalus, 4, 2)
	if twin.StateDigest() != before {
		t.Error("two fresh systems with equal state digest differently")
	}
}

// TestStateDigestRefreshesOnlyTheDelta pins the digest's cost without
// timing it, by counting leaf hashes: a digest right after Checkpoint
// rehashes nothing, one after writes to k distinct non-resident pages
// (WriteThrough or device path, and again after the device-path pages
// are evicted) rehashes exactly k, and one of a staged system after
// Replayer.Apply rehashes nothing.
func TestStateDigestRefreshesOnlyTheDelta(t *testing.T) {
	const pages, k = 64, 5
	cfg := salusCfg(pages, 8)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Arm split state first: arming it changes every record once.
	if err := s.WriteThrough(0, []byte("arm")); err != nil {
		t.Fatal(err)
	}
	store := crash.NewMemStore()
	j := crash.NewJournal(store)
	if _, err := s.FullCheckpoint(j); err != nil {
		t.Fatal(err)
	}
	refreshes := func(digest func()) uint64 {
		n := s.leafRefreshes
		digest()
		return s.leafRefreshes - n
	}
	digest := func() { s.StateDigest() }
	if n := refreshes(digest); n != 0 {
		t.Fatalf("digest right after FullCheckpoint rehashed %d leaves, want 0", n)
	}
	for p := 10; p < 10+k; p++ {
		if err := s.WriteThrough(HomeAddr(p*4096+100), []byte("delta")); err != nil {
			t.Fatal(err)
		}
	}
	if n := refreshes(digest); n != k {
		t.Fatalf("digest after WriteThroughs to %d pages rehashed %d leaves", k, n)
	}
	for p := 20; p < 20+k; p++ {
		if err := s.Write(HomeAddr(p*4096+100), []byte("delta")); err != nil {
			t.Fatal(err)
		}
	}
	// A device-path write stores its MAC in the page's home MAC sector
	// at once, so each written page's record has changed already.
	if n := refreshes(digest); n != k {
		t.Fatalf("digest after device-path writes to %d non-resident pages rehashed %d leaves", k, n)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := refreshes(digest); n != k {
		t.Fatalf("digest after evicting %d written pages rehashed %d leaves", k, n)
	}
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	if n := refreshes(digest); n != 0 {
		t.Fatalf("digest right after Checkpoint rehashed %d leaves, want 0", n)
	}

	rep, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Apply(store.Bytes(), root); err != nil {
		t.Fatal(err)
	}
	n := rep.s.leafRefreshes
	staged, err := rep.StateDigest()
	if err != nil {
		t.Fatal(err)
	}
	if got := rep.s.leafRefreshes - n; got != 0 {
		t.Fatalf("staged digest after Apply rehashed %d leaves, want 0", got)
	}
	if staged != s.StateDigest() {
		t.Fatal("staged digest differs from the source's")
	}
}

// checkLeaves fails when a page keep selects has a stale leaf, or a
// leaf that is not the hash of the page's record.
func checkLeaves(t *testing.T, s *System, keep []bool) {
	t.Helper()
	rec := make([]byte, s.pageRecordLen())
	for p := range keep {
		if !keep[p] {
			continue
		}
		if s.digestStale[p] {
			t.Fatalf("page %d: leaf still stale after replay", p)
		}
		s.encodePageRecord(p, rec)
		if sum := sha256.Sum256(rec); !bytes.Equal(sum[:], s.leaves[p*sha256.Size:(p+1)*sha256.Size]) {
			t.Fatalf("page %d: leaf does not hash the page's record", p)
		}
	}
}

// checkDigest fails when the cached digest and the from-scratch digest
// disagree.
func checkDigest(t *testing.T, s *System, after string) {
	t.Helper()
	cached := s.StateDigest()
	if fresh := s.StateDigestFromScratch(); cached != fresh {
		t.Fatalf("after %s: cached StateDigest differs from the from-scratch digest", after)
	}
}
