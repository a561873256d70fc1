package securemem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
)

// recordedJournal is a seeded write/checkpoint history: the whole
// journal, the delta and trusted root of every committed epoch, the live
// system's digest right after each commit, and a plaintext shadow.
type recordedJournal struct {
	cfg     Config
	journal []byte
	deltas  [][]byte
	roots   []TrustedRoot
	digests [][32]byte
	shadow  []byte
}

// recordJournal drives a 16-page system through six epochs of seeded
// traffic. Pages 0-7 take device-path writes, pages 8-10 take
// WriteThrough (split counters) only, pages 12-15 are never written.
// Epoch 2 poisons the first chunk of page 11 with a refused
// WriteThrough, epoch 3 quarantines a device frame, and
// epoch 4's first checkpoint fails mid-write, leaving its records on the
// journal uncommitted before the retry commits the next epoch.
func recordJournal(t *testing.T, seed int64) recordedJournal {
	t.Helper()
	cfg := salusCfg(16, 4)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	rec := recordedJournal{cfg: cfg, shadow: make([]byte, 16*4096)}
	fs := &failingStore{}
	j := crash.NewJournal(fs)
	framed := 0
	commit := func() {
		root, err := s.Checkpoint(j)
		if err != nil {
			t.Fatalf("checkpoint: %v", err)
		}
		delta := fs.inner.Bytes()[framed:]
		framed += len(delta)
		rec.deltas = append(rec.deltas, delta)
		rec.roots = append(rec.roots, root)
		rec.digests = append(rec.digests, s.StateDigest())
	}
	write := func(page int, through bool) {
		off := page*4096 + rng.Intn(4096-64)
		data := make([]byte, 1+rng.Intn(64))
		rng.Read(data)
		var err error
		if through {
			err = s.WriteThrough(HomeAddr(off), data)
		} else {
			err = s.Write(HomeAddr(off), data)
		}
		if err != nil {
			t.Fatalf("write page %d: %v", page, err)
		}
		copy(rec.shadow[off:], data)
	}
	for epoch := 1; epoch <= 6; epoch++ {
		for i := 0; i < 12; i++ {
			write(rng.Intn(8), false)
			write(8+rng.Intn(3), true)
		}
		switch epoch {
		case 2:
			s.AttachFaults(fault.NewScriptPlan([]fault.Event{
				{Tier: fault.TierHome, N: 1, Kind: fault.Poison},
			}), quickPolicy(), nil)
			if err := s.WriteThrough(11*4096, []byte("lost")); !errors.Is(err, ErrPoison) {
				t.Fatalf("home poison: WriteThrough returned %v, want ErrPoison", err)
			}
			s.AttachFaults(nil, quickPolicy(), nil)
		case 3:
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
			s.AttachFaults(fault.NewScriptPlan([]fault.Event{
				{Tier: fault.TierDevice, N: 1, Kind: fault.Poison},
			}), quickPolicy(), nil)
			if err := s.Read(0, make([]byte, 16)); err != nil {
				t.Fatalf("read across clean-frame poison: %v", err)
			}
			s.AttachFaults(nil, quickPolicy(), nil)
		case 4:
			fs.failAt = fs.n + 2
			if _, err := s.Checkpoint(j); err == nil {
				t.Fatal("checkpoint over a failing store succeeded")
			}
		}
		commit()
	}
	rec.journal = fs.inner.Bytes()
	last := rec.roots[len(rec.roots)-1]
	if len(last.PoisonedChunks) == 0 || len(last.QuarantinedFrames) == 0 || !last.HasSplit {
		t.Fatalf("history missed a feature: root %+v", last)
	}
	if last.Epoch != uint64(len(rec.roots)+1) {
		t.Fatalf("last epoch %d after %d commits: the abandoned epoch is missing", last.Epoch, len(rec.roots))
	}
	return rec
}

// TestReplayerEpochByEpochMatchesRecover: staging the journal one
// committed epoch at a time reproduces the live digest after every
// epoch, and ends byte-identical to one-shot Recover — same digest, same
// read-back bytes, same poisoned chunks — with never-written pages
// reading back as zeros.
func TestReplayerEpochByEpochMatchesRecover(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rec := recordJournal(t, seed)
		rep, err := NewReplayer(rec.cfg)
		if err != nil {
			t.Fatal(err)
		}
		for k, delta := range rec.deltas {
			if err := rep.Apply(delta, rec.roots[k]); err != nil {
				t.Fatalf("seed %d: apply epoch %d: %v", seed, rec.roots[k].Epoch, err)
			}
			got, err := rep.StateDigest()
			if err != nil {
				t.Fatal(err)
			}
			if got != rec.digests[k] {
				t.Fatalf("seed %d: staged digest after epoch %d differs from the live system's", seed, rec.roots[k].Epoch)
			}
		}
		staged, err := rep.Finish()
		if err != nil {
			t.Fatal(err)
		}
		last := rec.roots[len(rec.roots)-1]
		oneShot, err := Recover(rec.cfg, rec.journal, last)
		if err != nil {
			t.Fatal(err)
		}
		if staged.StateDigest() != oneShot.StateDigest() {
			t.Fatalf("seed %d: staged and one-shot recovery digests differ", seed)
		}
		poisoned := 0
		for addr := 0; addr < len(rec.shadow); addr += 256 {
			a, b := make([]byte, 256), make([]byte, 256)
			errA, errB := staged.Read(HomeAddr(addr), a), oneShot.Read(HomeAddr(addr), b)
			if errors.Is(errA, ErrPoison) && errors.Is(errB, ErrPoison) {
				poisoned++
				continue
			}
			if errA != nil || errB != nil {
				t.Fatalf("seed %d: read %d: staged %v, one-shot %v", seed, addr, errA, errB)
			}
			if !bytes.Equal(a, b) || !bytes.Equal(a, rec.shadow[addr:addr+256]) {
				t.Fatalf("seed %d: chunk at %d differs between staged, one-shot, and shadow", seed, addr)
			}
		}
		if poisoned != len(last.PoisonedChunks) {
			t.Fatalf("seed %d: %d chunks read poisoned, root lists %d", seed, poisoned, len(last.PoisonedChunks))
		}
		if !bytes.Equal(rec.shadow[11*4096:], make([]byte, 5*4096)) {
			t.Fatal("the history wrote a page it promised to leave untouched")
		}
	}
}

// TestReplayerOutOfOrderDeltasNoLaxerThanRecover: deltas applied twice,
// out of order, or with one skipped are refused typed whenever one
// Recover of their concatenation refuses it, and when both accept they
// agree on the state. Staging may refuse earlier, since it also holds
// every intermediate delta to its own root.
func TestReplayerOutOfOrderDeltasNoLaxerThanRecover(t *testing.T) {
	rec := recordJournal(t, 1)
	typed := func(err error) bool {
		return errors.Is(err, crash.ErrTornCheckpoint) || errors.Is(err, crash.ErrRollback) || errors.Is(err, ErrFreshness)
	}
	for _, order := range [][]int{{0, 0}, {0, 1, 1}, {1, 0}, {0, 2}, {1}, {0, 1, 3}} {
		rep, err := NewReplayer(rec.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var journal []byte
		var stagedErr error
		for _, k := range order {
			journal = append(journal, rec.deltas[k]...)
			if stagedErr == nil {
				stagedErr = rep.Apply(rec.deltas[k], rec.roots[k])
			}
		}
		oneShot, oneShotErr := Recover(rec.cfg, journal, rec.roots[order[len(order)-1]])
		switch {
		case stagedErr != nil && !typed(stagedErr):
			t.Errorf("deltas %v: staged refusal untyped: %v", order, stagedErr)
		case oneShotErr != nil && stagedErr == nil:
			t.Errorf("deltas %v: staged accepted what Recover refuses (%v)", order, oneShotErr)
		case stagedErr == nil:
			digest, err := rep.StateDigest()
			if err != nil || digest != oneShot.StateDigest() {
				t.Errorf("deltas %v: staged and one-shot states differ (%v)", order, err)
			}
		}
	}
}

// TestReplayerLeavesBackingUntilFinish: with a Backing, nothing is
// written into the window before Finish, a discarded staging scrubs its
// private copy, and Finish leaves the ciphertext only in the window.
func TestReplayerLeavesBackingUntilFinish(t *testing.T) {
	rec := recordJournal(t, 2)
	pool := NewBacking(testGeo(), 16, 4)
	for i := range pool.Home {
		pool.Home[i] = 0xA5
	}
	cfg := rec.cfg
	cfg.Backing = pool.Window(testGeo(), 0, 16, 0, 4)
	last := rec.roots[len(rec.roots)-1]

	untouched := func(what string) {
		t.Helper()
		if !bytes.Equal(pool.Home, bytes.Repeat([]byte{0xA5}, len(pool.Home))) {
			t.Fatalf("%s wrote into the backing window", what)
		}
	}
	rep, err := NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Apply(rec.journal, last); err != nil {
		t.Fatal(err)
	}
	if _, err := rep.StateDigest(); err != nil {
		t.Fatal(err)
	}
	untouched("staging")
	private := rep.s.cxlData
	rep.Discard()
	untouched("discard")
	if !bytes.Equal(private, make([]byte, len(private))) {
		t.Fatal("discard left staged ciphertext in the private buffer")
	}
	if _, err := rep.Finish(); err == nil {
		t.Fatal("finish after discard succeeded")
	}

	rep, err = NewReplayer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Apply(rec.journal, last); err != nil {
		t.Fatal(err)
	}
	private = rep.s.cxlData
	sys, err := rep.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(private, make([]byte, len(private))) {
		t.Fatal("finish left staged ciphertext in the private buffer")
	}
	if sys.StateDigest() != rec.digests[len(rec.digests)-1] {
		t.Fatal("installed digest differs from the live system's")
	}
	if &sys.cxlData[0] != &cfg.Backing.Home[0] {
		t.Fatal("installed system does not run on the backing window")
	}
	rep.Discard() // a no-op after Finish
	if sys.StateDigest() != rec.digests[len(rec.digests)-1] {
		t.Fatal("discard after finish disturbed the installed system")
	}
}
