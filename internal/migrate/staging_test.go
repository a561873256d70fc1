package migrate

import (
	"errors"
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/tenant"
)

// stagingSession starts an honest session from a seeded source and
// returns it with the destination tenant and that tenant's pristine
// digest, before any frame has moved.
func stagingSession(t *testing.T) (*Session, *tenant.Tenant, [32]byte) {
	t.Helper()
	src, dst := newPool(t, nil), newPool(t, nil)
	seedTenant(t, mustTenant(t, src, "m"))
	s, err := Start(baseConfig(src, dst, t))
	if err != nil {
		t.Fatal(err)
	}
	dm := mustTenant(t, dst, "m")
	return s, dm, dm.StateDigest()
}

// pristine fails the test unless the destination tenant is exactly as
// it was before the session.
func pristine(t *testing.T, dm *tenant.Tenant, digest [32]byte, what string) {
	t.Helper()
	if dm.Epoch() != 0 || dm.StateDigest() != digest {
		t.Fatalf("%s left the destination tenant modified", what)
	}
}

// TestMigrateStagedRoundsNeverReachPool: a stream cut after any number
// of verified, staged rounds leaves the destination pristine, and so
// does a later terminal failure that discards the staging.
func TestMigrateStagedRoundsNeverReachPool(t *testing.T) {
	for rounds := 1; rounds <= 3; rounds++ {
		s, dm, digest := stagingSession(t)
		for i := 0; i < rounds; i++ {
			if i > 0 {
				if err := s.cfg.Source.Write(securemem.HomeAddr(4096*i), []byte("delta")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.syncRound(false); err != nil {
				t.Fatalf("round %d: %v", i+1, err)
			}
		}
		if s.recv.stage == nil {
			t.Fatal("verified rounds were not staged")
		}
		if s.recv.buf != nil {
			t.Fatal("staged round bytes still buffered")
		}
		pristine(t, dm, digest, "a stream cut after staged rounds")
		s.fail(ErrTornStream)
		if s.recv.stage != nil {
			t.Fatal("terminal failure kept the staging")
		}
		pristine(t, dm, digest, "a terminal failure after staged rounds")
	}
}

// TestMigrateForgedCutoverDigestLeavesPoolUntouched: every round
// stages and verifies, but the cutover digest is forged — the staged
// state is held to it before install, so the destination pool never
// sees the stream.
func TestMigrateForgedCutoverDigestLeavesPoolUntouched(t *testing.T) {
	s, dm, digest := stagingSession(t)
	if err := s.syncRound(false); err != nil {
		t.Fatal(err)
	}
	if err := s.syncRound(true); err != nil {
		t.Fatal(err)
	}
	forged := s.cfg.Source.StateDigest()
	forged[0] ^= 1
	s.enqueue(frameCutover, forged[:])
	if err := s.drain(); !errors.Is(err, ErrAttestation) {
		t.Fatalf("forged cutover digest: got %v, want ErrAttestation", err)
	}
	if s.recv.Done() || s.recv.stage != nil {
		t.Fatal("receiver kept or installed the staging after a digest mismatch")
	}
	pristine(t, dm, digest, "a forged cutover digest")
}

// TestMigrateRoundRefusedAtItsCommit: a round whose replayed counters
// disagree with its commit root — here a sender holding the migration
// key attests a root the journal does not produce — is refused at that
// commit frame, typed ErrFreshness, not deferred to the cutover.
func TestMigrateRoundRefusedAtItsCommit(t *testing.T) {
	s, dm, digest := stagingSession(t)
	root, err := s.cfg.Source.FullCheckpoint(s.journal)
	if err != nil {
		t.Fatal(err)
	}
	delta := s.store.Tail(0)
	root.CXLRoot[0] ^= 1

	hdr := make([]byte, 20)
	putU32(hdr[0:], 1)
	putU64(hdr[4:], root.Epoch)
	putU64(hdr[12:], uint64(len(delta)))
	if err := s.recv.Feed(s.ch.seal(frameRound, hdr)); err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(delta); off += 1024 {
		end := min(off+1024, len(delta))
		chunk := make([]byte, 8+end-off)
		putU64(chunk, uint64(off))
		copy(chunk[8:], delta[off:end])
		if err := s.recv.Feed(s.ch.seal(frameChunk, chunk)); err != nil {
			t.Fatalf("chunk at %d: %v", off, err)
		}
	}
	if err := s.recv.Feed(s.ch.seal(frameCommit, root.MarshalBinary())); !errors.Is(err, ErrFreshness) {
		t.Fatalf("commit with a mismatched root: got %v, want ErrFreshness", err)
	}
	if s.recv.Ops().Fresh != 1 {
		t.Fatalf("refusal not counted as freshness: %+v", s.recv.Ops())
	}
	pristine(t, dm, digest, "a round refused at its commit")
}

// BenchmarkMigrateCutover migrates a tenant of the benchmark ladder's
// shape (1024 pages, 256 device frames): a full bootstrap round while
// the source idles, then a small dirty delta written just before the
// quiesced final round. The benchmark timer runs only inside the
// quiesced callback, so ns/op is the cutover pause, also reported as
// pause-ms.
func BenchmarkMigrateCutover(b *testing.B) {
	const pages, frames = 1024, 256
	geo := config.Default().Geometry
	host := func() (*tenant.Pool, *tenant.Tenant) {
		p, err := tenant.NewPool(tenant.Config{
			Geometry: geo,
			Slices:   []tenant.Slice{{ID: "m", Pages: pages, Frames: frames}},
		})
		if err != nil {
			b.Fatal(err)
		}
		t, err := p.Tenant("m")
		if err != nil {
			b.Fatal(err)
		}
		return p, t
	}
	page := make([]byte, geo.PageSize)
	b.StopTimer()
	for i := 0; i < b.N; i++ {
		src, m := host()
		for p := 0; p < pages; p++ {
			page[0], page[1] = byte(p), byte(i)
			if err := m.Write(securemem.HomeAddr(p*geo.PageSize), page); err != nil {
				b.Fatal(err)
			}
		}
		dst, _ := host()
		sw := &timedCutover{b: b, eng: m.Engine(), dirty: func() error {
			for p := 0; p < pages; p += 64 {
				if err := m.Write(securemem.HomeAddr(p*geo.PageSize), []byte("delta")); err != nil {
					return err
				}
			}
			return nil
		}}
		if _, err := Run(Config{SourcePool: src, Source: m, DestPool: dst, Swap: sw}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "pause-ms")
}

// timedCutover is a Swapper that dirties the source just before the
// quiesce and runs the benchmark timer only inside the quiesced
// callback.
type timedCutover struct {
	b     *testing.B
	eng   *securemem.Concurrent
	dirty func() error
}

func (w *timedCutover) WithQuiescedSwap(fn func(old *securemem.Concurrent) (*securemem.Concurrent, error)) error {
	if err := w.dirty(); err != nil {
		return err
	}
	w.b.StartTimer()
	eng, err := fn(w.eng)
	w.b.StopTimer()
	if err != nil {
		return err
	}
	w.eng = eng
	return nil
}
