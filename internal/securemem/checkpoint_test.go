package securemem

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/link"
)

func TestCheckpointRecoverRoundTrip(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 2)
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	if err := s.Write(0, []byte("epoch one, page zero")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(3*4096+100, []byte("epoch one, page three")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(j); err != nil {
		t.Fatal(err)
	}

	if err := s.Write(0, []byte("epoch two overwrite!")); err != nil {
		t.Fatal(err)
	}
	// Direct CXL write so the recovered system must rebuild split state.
	if err := s.WriteThrough(6*4096, []byte("split-state payload")); err != nil {
		t.Fatal(err)
	}
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	if root.Epoch != 2 {
		t.Fatalf("root epoch = %d; want 2", root.Epoch)
	}
	liveDigest := s.StateDigest()

	r, err := Recover(salusCfg(8, 2), store.Bytes(), root)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.StateDigest(); got != liveDigest {
		t.Fatal("recovered state digest differs from the checkpointed system")
	}
	for addr, want := range map[HomeAddr]string{
		0:            "epoch two overwrite!",
		3*4096 + 100: "epoch one, page three",
		6 * 4096:     "split-state payload",
	} {
		got := make([]byte, len(want))
		if err := r.Read(addr, got); err != nil {
			t.Fatalf("read %d after recover: %v", addr, err)
		}
		if string(got) != want {
			t.Fatalf("addr %d: got %q, want %q", addr, got, want)
		}
	}
}

// TestCheckpointAccounting pins the satellite contract: N dirty pages
// yield exactly N page records, the journal byte growth lands in OpStats,
// and a checkpoint with nothing dirty commits an empty epoch.
func TestCheckpointAccounting(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 2)
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	const dirtyPages = 3
	for p := 0; p < dirtyPages; p++ {
		if err := s.Write(HomeAddr(p*4096), []byte{byte('a' + p)}); err != nil {
			t.Fatal(err)
		}
	}
	before := s.Stats()
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if got := after.CheckpointPages - before.CheckpointPages; got != dirtyPages {
		t.Fatalf("CheckpointPages grew by %d; want %d", got, dirtyPages)
	}
	if got := after.Checkpoints - before.Checkpoints; got != 1 {
		t.Fatalf("Checkpoints grew by %d; want 1", got)
	}
	if after.CheckpointBytes != j.BytesWritten() {
		t.Fatalf("CheckpointBytes = %d; journal wrote %d", after.CheckpointBytes, j.BytesWritten())
	}
	if after.CheckpointCycles == 0 {
		t.Fatal("checkpoint charged no cycles")
	}
	recs, err := crash.Replay(store.Bytes(), root.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != dirtyPages {
		t.Fatalf("journal holds %d records; want %d", len(recs), dirtyPages)
	}

	// Nothing dirty: the next checkpoint is an empty epoch — exactly one
	// commit record, no page records, epoch still advances.
	bytesBefore := j.BytesWritten()
	root2, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	final := s.Stats()
	if final.CheckpointPages != after.CheckpointPages {
		t.Fatalf("no-op checkpoint journaled %d pages", final.CheckpointPages-after.CheckpointPages)
	}
	if root2.Epoch != root.Epoch+1 {
		t.Fatalf("no-op checkpoint epoch = %d; want %d", root2.Epoch, root.Epoch+1)
	}
	grown := j.BytesWritten() - bytesBefore
	if grown == 0 || grown > 64 {
		t.Fatalf("no-op checkpoint wrote %d bytes; want one bare commit record", grown)
	}
	recs2, err := crash.Replay(store.Bytes(), root2.Epoch)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs2) != dirtyPages {
		t.Fatalf("after no-op epoch: %d records; want %d", len(recs2), dirtyPages)
	}
}

// TestRecoverRejectsStaleJournal is the rollback-attack regression: a
// bit-for-bit valid journal captured before the latest epoch must be
// rejected with ErrRollback when replayed against the current root.
func TestRecoverRejectsStaleJournal(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 2)
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	if err := s.Write(0, []byte("balance: 1000")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(j); err != nil {
		t.Fatal(err)
	}
	staleJournal := store.Bytes() // attacker snapshots the medium here

	if err := s.Write(0, []byte("balance: 0000")); err != nil {
		t.Fatal(err)
	}
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Recover(salusCfg(4, 2), staleJournal, root); !errors.Is(err, crash.ErrRollback) {
		t.Fatalf("stale journal replay: %v; want ErrRollback", err)
	}
	// The honest journal still recovers.
	if _, err := Recover(salusCfg(4, 2), store.Bytes(), root); err != nil {
		t.Fatalf("honest journal: %v", err)
	}
}

func TestRecoverRejectsTamperedJournal(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 2)
	store := crash.NewMemStore()
	j := crash.NewJournal(store)
	if err := s.Write(0, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	data := store.Bytes()
	data[len(data)/2] ^= 0x10
	if _, err := Recover(salusCfg(4, 2), data, root); !errors.Is(err, crash.ErrTornCheckpoint) {
		t.Fatalf("tampered journal: %v; want ErrTornCheckpoint", err)
	}
	// A journal that parses but encodes different counters than the TCB
	// root trusts is a forgery: flip a root bit instead.
	root.CXLRoot[0] ^= 1
	if _, err := Recover(salusCfg(4, 2), store.Bytes(), root); !errors.Is(err, ErrFreshness) {
		t.Fatalf("forged root: %v; want ErrFreshness", err)
	}
}

// failingStore passes writes through to a MemStore until a chosen write
// number, which fails once (a transient persistence outage, not a crash).
type failingStore struct {
	inner  crash.MemStore
	failAt int
	n      int
}

func (f *failingStore) Write(p []byte) error {
	f.n++
	if f.n == f.failAt {
		return fmt.Errorf("injected write failure")
	}
	return f.inner.Write(p)
}

func (f *failingStore) Sync() error { return nil }

// TestCheckpointRetryAfterFailure: a failed checkpoint consumes its epoch
// so the retry commits under a fresh one, and Replay discards the
// abandoned partial epoch cleanly.
func TestCheckpointRetryAfterFailure(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 2)
	fs := &failingStore{failAt: 2}
	j := crash.NewJournal(fs)

	for p := 0; p < 3; p++ {
		if err := s.Write(HomeAddr(p*4096), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Checkpoint(j); err == nil {
		t.Fatal("checkpoint over failing store succeeded")
	}
	// Retry on the same journal: the abandoned epoch-1 records are still
	// on the medium; epoch 2 must supersede them.
	root, err := s.Checkpoint(j)
	if err != nil {
		t.Fatalf("retry checkpoint: %v", err)
	}
	if root.Epoch != 2 {
		t.Fatalf("retry committed epoch %d; want 2 (epoch 1 consumed by the failure)", root.Epoch)
	}
	r, err := Recover(salusCfg(8, 2), fs.inner.Bytes(), root)
	if err != nil {
		t.Fatalf("recover after retry: %v", err)
	}
	if got, want := r.StateDigest(), s.StateDigest(); got != want {
		t.Fatal("recovered digest differs after retry")
	}
}

func TestCheckpointKeepsResidency(t *testing.T) {
	s := newSys(t, ModelSalus, 8, 2)
	j := crash.NewJournal(crash.NewMemStore())
	if err := s.Write(0, []byte("resident dirty data")); err != nil {
		t.Fatal(err)
	}
	if !s.IsResident(0) {
		t.Fatal("page 0 not resident before checkpoint")
	}
	if _, err := s.Checkpoint(j); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if !s.IsResident(0) {
		t.Fatal("checkpoint evicted the page")
	}
	if st.CheckpointWritebacks == 0 {
		t.Fatal("dirty resident chunk not written back")
	}
	if st.PageEvictions != 0 || st.DirtyChunkWritebacks != 0 {
		t.Fatalf("checkpoint leaked into eviction accounting: evictions=%d dirtyWritebacks=%d",
			st.PageEvictions, st.DirtyChunkWritebacks)
	}
	// The resident copy stays live: read and write again.
	buf := make([]byte, 19)
	if err := s.Read(0, buf); err != nil || string(buf) != "resident dirty data" {
		t.Fatalf("post-checkpoint read: %q, %v", buf, err)
	}
	if err := s.Write(0, []byte("still writable")); err != nil {
		t.Fatalf("post-checkpoint write: %v", err)
	}
}

func TestCheckpointModelAndArgumentErrors(t *testing.T) {
	conv := newSys(t, ModelConventional, 4, 2)
	if _, err := conv.Checkpoint(crash.NewJournal(crash.NewMemStore())); err == nil {
		t.Error("conventional checkpoint accepted")
	}
	if _, err := Recover(Config{Geometry: testGeo(), Model: ModelConventional, TotalPages: 4, DevicePages: 2}, nil, TrustedRoot{}); err == nil {
		t.Error("conventional recover accepted")
	}
	s := newSys(t, ModelSalus, 4, 2)
	if _, err := s.Checkpoint(nil); !errors.Is(err, ErrJournalRequired) {
		t.Errorf("nil journal: %v; want ErrJournalRequired", err)
	}
}

func TestTrustedRootMarshalRoundTrip(t *testing.T) {
	root := TrustedRoot{
		Epoch:             7,
		HasSplit:          true,
		PoisonedChunks:    []int{3, 9},
		QuarantinedFrames: []int{1},
		PinnedPages:       []int{0, 2, 5},
	}
	root.CXLRoot[0], root.SplitRoot[31] = 0xAB, 0xCD
	got, err := UnmarshalTrustedRoot(root.MarshalBinary())
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != root.Epoch || got.CXLRoot != root.CXLRoot || got.SplitRoot != root.SplitRoot ||
		got.HasSplit != root.HasSplit ||
		fmt.Sprint(got.PoisonedChunks) != fmt.Sprint(root.PoisonedChunks) ||
		fmt.Sprint(got.QuarantinedFrames) != fmt.Sprint(root.QuarantinedFrames) ||
		fmt.Sprint(got.PinnedPages) != fmt.Sprint(root.PinnedPages) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, root)
	}
	if _, err := UnmarshalTrustedRoot([]byte("garbage")); err == nil {
		t.Error("garbage root accepted")
	}
	if _, err := UnmarshalTrustedRoot(root.MarshalBinary()[:10]); err == nil {
		t.Error("truncated root accepted")
	}
}

// TestConcurrentCheckpointUnderLoad checkpoints while reader and writer
// goroutines hammer the system; run under -race this is the satellite's
// checkpoint-under-load race test. The final recovery must reproduce the
// last committed digest even though ops continued after it.
func TestConcurrentCheckpointUnderLoad(t *testing.T) {
	c, err := NewConcurrent(salusCfg(8, 2))
	if err != nil {
		t.Fatal(err)
	}
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	fail := make(chan error, 16)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 64)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				addr := HomeAddr((g*1024 + i*64) % (8 * 4096))
				if i%2 == 0 {
					if err := c.Write(addr, []byte{byte(g), byte(i)}); err != nil {
						fail <- err
						return
					}
				} else if err := c.Read(addr, buf); err != nil {
					fail <- err
					return
				}
			}
		}(g)
	}
	var lastRoot TrustedRoot
	for k := 0; k < 8; k++ {
		root, err := c.Checkpoint(j)
		if err != nil {
			t.Fatal(err)
		}
		lastRoot = root
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-fail:
		t.Fatal(err)
	default:
	}
	if lastRoot.Epoch != 8 {
		t.Fatalf("epoch after 8 checkpoints = %d", lastRoot.Epoch)
	}
	// Quiesce and take one final checkpoint so the journal tip matches a
	// digest we can compare against.
	root, err := c.Checkpoint(j)
	if err != nil {
		t.Fatal(err)
	}
	live := c.Unwrap().StateDigest()
	r, err := Recover(salusCfg(8, 2), store.Bytes(), root)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.StateDigest(); got != live {
		t.Fatal("recovered digest differs from quiesced system")
	}
}

func TestSuspendResumeCarriesEpoch(t *testing.T) {
	s := newSys(t, ModelSalus, 4, 2)
	j := crash.NewJournal(crash.NewMemStore())
	if err := s.Write(0, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(j); err != nil {
		t.Fatal(err)
	}
	image, root, err := s.Suspend()
	if err != nil {
		t.Fatal(err)
	}
	if root.Epoch != 1 {
		t.Fatalf("suspend root epoch = %d; want 1", root.Epoch)
	}
	restored, err := Resume(salusCfg(4, 2), image, root)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Epoch() != 1 {
		t.Fatalf("resumed epoch = %d; want 1", restored.Epoch())
	}
	// A resumed system cannot rely on the deterministic initial state:
	// its next checkpoint must journal every page.
	store2 := crash.NewMemStore()
	j2 := crash.NewJournal(store2)
	root2, err := restored.Checkpoint(j2)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Stats().CheckpointPages; got != 4 {
		t.Fatalf("post-resume checkpoint journaled %d pages; want all 4", got)
	}
	if _, err := Recover(salusCfg(4, 2), store2.Bytes(), root2); err != nil {
		t.Fatalf("recover from post-resume journal: %v", err)
	}
}

// TestCheckpointRefusedAtomicallyOnLinkLoss pins the atomic refusal: a
// checkpoint that cannot reach the home tier — the link is down, or the
// circuit breaker is open — returns the typed link error with the journal
// and the epoch untouched, and the next checkpoint once the link is back
// commits exactly the following epoch.
func TestCheckpointRefusedAtomicallyOnLinkLoss(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  link.Config
		want error
	}{
		{"down", link.Config{Threshold: 3, Cooldown: 2}, ErrLinkDown},
		{"breaker-open", link.Config{Threshold: 1, Cooldown: 2}, ErrDegraded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newSys(t, ModelSalus, 8, 2)
			manual := link.NewManual()
			s.AttachLink(link.New(manual, tc.cfg), nil, 4)
			j := crash.NewJournal(crash.NewMemStore())
			if err := s.Write(0, []byte("committed epoch")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Checkpoint(j); err != nil {
				t.Fatal(err)
			}
			epoch, written := s.Epoch(), j.BytesWritten()
			// Dirty two device-resident pages for the next epoch.
			for _, addr := range []HomeAddr{0, 4096} {
				if err := s.Write(addr, []byte("dirty since the commit")); err != nil {
					t.Fatal(err)
				}
			}

			refused := func(want error) {
				t.Helper()
				if _, err := s.Checkpoint(j); !errors.Is(err, want) {
					t.Fatalf("checkpoint: got %v, want %v", err, want)
				}
				if s.Epoch() != epoch || j.BytesWritten() != written {
					t.Fatalf("refused checkpoint moved state: epoch %d -> %d, journal %d -> %d bytes",
						epoch, s.Epoch(), written, j.BytesWritten())
				}
			}
			manual.Set(link.StateDown)
			refused(ErrLinkDown)
			manual.Set(link.StateUp)
			if tc.want == ErrDegraded {
				// The refusal opened the breaker: the plan is up again, but
				// transfers fast-fail until the cooldown elapses.
				for i := 0; i < tc.cfg.Cooldown; i++ {
					refused(ErrDegraded)
				}
			}
			root, err := s.Checkpoint(j)
			if err != nil {
				t.Fatalf("checkpoint with the link back: %v", err)
			}
			if root.Epoch != epoch+1 || s.Epoch() != epoch+1 {
				t.Fatalf("committed epoch %d (system %d), want %d", root.Epoch, s.Epoch(), epoch+1)
			}
			if j.BytesWritten() <= written {
				t.Fatal("committed checkpoint wrote nothing to the journal")
			}
		})
	}
}
