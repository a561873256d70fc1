package crash

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

// journalEpochs writes n epochs to store, each with a few data records,
// and returns the expected cumulative replay result per epoch.
func journalEpochs(t *testing.T, store StableStore, n int) [][]Record {
	t.Helper()
	j := NewJournal(store)
	var cumulative []Record
	var perEpoch [][]Record
	for e := uint64(1); e <= uint64(n); e++ {
		for r := 0; r < int(e); r++ { // epoch e carries e records
			payload := []byte(fmt.Sprintf("epoch %d record %d", e, r))
			if err := j.Append(byte(r%3), e, payload); err != nil {
				t.Fatalf("Append(e=%d r=%d): %v", e, r, err)
			}
			cumulative = append(cumulative, Record{Type: byte(r % 3), Epoch: e, Payload: payload})
		}
		if err := j.Commit(e); err != nil {
			t.Fatalf("Commit(%d): %v", e, err)
		}
		perEpoch = append(perEpoch, append([]Record(nil), cumulative...))
	}
	return perEpoch
}

func recordsEqual(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Type != b[i].Type || a[i].Epoch != b[i].Epoch || !bytes.Equal(a[i].Payload, b[i].Payload) {
			return false
		}
	}
	return true
}

func TestReplayRoundTrip(t *testing.T) {
	store := NewMemStore()
	perEpoch := journalEpochs(t, store, 4)
	data := store.Bytes()

	if recs, err := Replay(data, 0); err != nil || recs != nil {
		t.Fatalf("Replay(target=0) = %v, %v; want nil, nil", recs, err)
	}
	for e := 1; e <= 4; e++ {
		recs, err := Replay(data, uint64(e))
		if err != nil {
			t.Fatalf("Replay(target=%d): %v", e, err)
		}
		if !recordsEqual(recs, perEpoch[e-1]) {
			t.Fatalf("Replay(target=%d): got %d records, want %d", e, len(recs), len(perEpoch[e-1]))
		}
	}
}

// TestReplaySinceMatchesReplay: replaying a journal one committed delta
// at a time (deltas cut with MemStore.Tail) yields exactly the records
// of one Replay, and a delta replayed again or out of order is refused
// as it would be inside the whole journal.
func TestReplaySinceMatchesReplay(t *testing.T) {
	store := NewMemStore()
	j := NewJournal(store)
	var deltas [][]byte
	for e := uint64(1); e <= 4; e++ {
		for r := 0; r < int(e); r++ {
			if err := j.Append(1, e, []byte(fmt.Sprintf("epoch %d record %d", e, r))); err != nil {
				t.Fatal(err)
			}
		}
		if e == 2 {
			// Abandon epoch 2 mid-way; epoch 3's commit follows.
			continue
		}
		if err := j.Commit(e); err != nil {
			t.Fatal(err)
		}
		written := 0
		for _, d := range deltas {
			written += len(d)
		}
		deltas = append(deltas, store.Bytes()[written:])
	}
	whole, err := Replay(store.Bytes(), 4)
	if err != nil {
		t.Fatal(err)
	}
	var staged []Record
	epochs := []uint64{1, 3, 4}
	base := uint64(0)
	for i, d := range deltas {
		recs, err := ReplaySince(d, base, epochs[i])
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		staged = append(staged, recs...)
		base = epochs[i]
	}
	if !recordsEqual(staged, whole) {
		t.Fatalf("delta-by-delta replay: %d records, whole journal %d", len(staged), len(whole))
	}
	if _, err := ReplaySince(deltas[0], 1, 3); !errors.Is(err, ErrTornCheckpoint) {
		t.Fatalf("epoch 1's delta replayed again: %v; want ErrTornCheckpoint", err)
	}
	if _, err := ReplaySince(deltas[2], 4, 3); !errors.Is(err, ErrRollback) {
		t.Fatalf("target below base: %v; want ErrRollback", err)
	}
	if recs, err := ReplaySince(deltas[2], 4, 4); recs != nil || err != nil {
		t.Fatalf("target equal to base = %v, %v; want nil, nil", recs, err)
	}
}

func TestReplayRejectsStaleJournal(t *testing.T) {
	store := NewMemStore()
	journalEpochs(t, store, 2)
	// The trusted epoch says 5: this journal is a replayed old image.
	if _, err := Replay(store.Bytes(), 5); !errors.Is(err, ErrRollback) {
		t.Fatalf("Replay of stale journal: %v; want ErrRollback", err)
	}
	// An empty journal against a nonzero trusted epoch is the limiting case.
	if _, err := Replay(nil, 1); !errors.Is(err, ErrRollback) {
		t.Fatalf("Replay of empty journal: %v; want ErrRollback", err)
	}
}

func TestReplayDetectsCorruption(t *testing.T) {
	store := NewMemStore()
	journalEpochs(t, store, 3)
	clean := store.Bytes()

	// Every single-byte corruption before the target's commit must be
	// detected (CRC framing), never silently absorbed.
	for off := 0; off < len(clean); off += 7 {
		data := append([]byte(nil), clean...)
		data[off] ^= 0x41
		recs, err := Replay(data, 3)
		if err == nil {
			// A flip after epoch 3's commit record is never examined.
			if !recordsEqual(recs, mustReplay(t, clean, 3)) {
				t.Fatalf("flip at %d: records differ from clean replay", off)
			}
			continue
		}
		if !errors.Is(err, ErrTornCheckpoint) && !errors.Is(err, ErrRollback) {
			t.Fatalf("flip at %d: untyped error %v", off, err)
		}
	}

	// Truncation mid-record is torn.
	if _, err := Replay(clean[:len(clean)-3], 3); !errors.Is(err, ErrTornCheckpoint) {
		t.Fatalf("truncated journal: %v; want ErrTornCheckpoint", err)
	}
}

func mustReplay(t *testing.T, data []byte, target uint64) []Record {
	t.Helper()
	recs, err := Replay(data, target)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return recs
}

func TestReplayDiscardsAbandonedEpoch(t *testing.T) {
	store := NewMemStore()
	j := NewJournal(store)
	if err := j.Append(1, 1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(1); err != nil {
		t.Fatal(err)
	}
	// Epoch 2 is abandoned mid-write (no commit); epoch 3 retries.
	if err := j.Append(1, 2, []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, 3, []byte("retry")); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(3); err != nil {
		t.Fatal(err)
	}
	recs := mustReplay(t, store.Bytes(), 3)
	want := []Record{
		{Type: 1, Epoch: 1, Payload: []byte("one")},
		{Type: 1, Epoch: 3, Payload: []byte("retry")},
	}
	if !recordsEqual(recs, want) {
		t.Fatalf("got %+v, want %+v", recs, want)
	}
}

// TestCutEnumeration is the harness in miniature: journal a few epochs on
// a Tape, then cut at every event boundary in every damage mode and check
// that honest cuts replay the paired epoch exactly and corrupt cuts are
// either exact or typed.
func TestCutEnumeration(t *testing.T) {
	var tape Tape
	j := NewJournal(&tape)
	var pointsAtCommit []int // index e-1 -> tape points when epoch e committed
	var perEpoch [][]Record
	var cumulative []Record
	for e := uint64(1); e <= 3; e++ {
		for r := 0; r < 4; r++ {
			payload := []byte(fmt.Sprintf("e%dr%d", e, r))
			if err := j.Append(0x10, e, payload); err != nil {
				t.Fatal(err)
			}
			cumulative = append(cumulative, Record{Type: 0x10, Epoch: e, Payload: payload})
		}
		if err := j.Commit(e); err != nil {
			t.Fatal(err)
		}
		pointsAtCommit = append(pointsAtCommit, tape.Points())
		perEpoch = append(perEpoch, append([]Record(nil), cumulative...))
	}

	for e := 0; e <= tape.Points(); e++ {
		// Paired trusted epoch: the last one whose commit (including its
		// sync) completed at or before this cut.
		var target uint64
		for i, p := range pointsAtCommit {
			if p <= e {
				target = uint64(i + 1)
			}
		}
		for mode := DamageMode(0); mode < NumDamageModes; mode++ {
			durable := tape.Cut(e, mode, 42)
			recs, err := Replay(durable, target)
			if mode.Honest() {
				if err != nil {
					t.Fatalf("cut %d mode %v target %d: %v", e, mode, target, err)
				}
				if target > 0 && !recordsEqual(recs, perEpoch[target-1]) {
					t.Fatalf("cut %d mode %v target %d: wrong records", e, mode, target)
				}
				continue
			}
			if err != nil && !errors.Is(err, ErrTornCheckpoint) && !errors.Is(err, ErrRollback) {
				t.Fatalf("cut %d mode %v target %d: untyped error %v", e, mode, target, err)
			}
		}
	}
}

func TestCutDeterminism(t *testing.T) {
	var tape Tape
	j := NewJournal(&tape)
	for r := 0; r < 5; r++ {
		if err := j.Append(0x10, 1, bytes.Repeat([]byte{byte(r)}, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Commit(1); err != nil {
		t.Fatal(err)
	}
	for e := 0; e <= tape.Points(); e++ {
		for mode := DamageMode(0); mode < NumDamageModes; mode++ {
			a := tape.Cut(e, mode, 7)
			b := tape.Cut(e, mode, 7)
			if !bytes.Equal(a, b) {
				t.Fatalf("cut %d mode %v: nondeterministic", e, mode)
			}
		}
	}
}

func TestCrashStorePowerCut(t *testing.T) {
	cs := NewCrashStore(3, CutClean, 1)
	j := NewJournal(cs)
	var err error
	n := 0
	for e := uint64(1); err == nil && e < 10; e++ {
		if err = j.Append(0x10, e, []byte("x")); err == nil {
			n++
			err = j.Commit(e)
		}
	}
	if !errors.Is(err, ErrPowerLost) {
		t.Fatalf("journal against CrashStore: %v; want ErrPowerLost", err)
	}
	if !cs.Dead() {
		t.Fatal("CrashStore not dead after power cut")
	}
	// Everything after death keeps failing.
	if err := cs.Write([]byte("late")); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("post-cut Write: %v", err)
	}
	if err := cs.Sync(); !errors.Is(err, ErrPowerLost) {
		t.Fatalf("post-cut Sync: %v", err)
	}
	// The durable image is whatever survived the cut: committed epoch 1
	// at most (cut after 3 events = append, sync, commit-write).
	if got := CommittedEpoch(cs.Durable()); got > 1 {
		t.Fatalf("CommittedEpoch after cut = %d; want <= 1", got)
	}
}

func TestCommittedEpoch(t *testing.T) {
	store := NewMemStore()
	journalEpochs(t, store, 3)
	if got := CommittedEpoch(store.Bytes()); got != 3 {
		t.Fatalf("CommittedEpoch = %d; want 3", got)
	}
	if got := CommittedEpoch(nil); got != 0 {
		t.Fatalf("CommittedEpoch(nil) = %d; want 0", got)
	}
	// Trailing garbage does not obscure the committed prefix.
	data := append(store.Bytes(), 0xDE, 0xAD, 0xBE, 0xEF)
	if got := CommittedEpoch(data); got != 3 {
		t.Fatalf("CommittedEpoch with trailing garbage = %d; want 3", got)
	}
}

func TestJournalRejectsReservedType(t *testing.T) {
	j := NewJournal(NewMemStore())
	if err := j.Append(TypeCommit, 1, nil); err == nil {
		t.Fatal("Append with commit type accepted")
	}
	if err := j.Append(0xFF, 1, nil); err == nil {
		t.Fatal("Append with reserved type accepted")
	}
}

// TestMemStoreSegments: writes of every size, including ones that
// straddle segments and ones larger than a segment, read back through
// Bytes and Take exactly as one contiguous append would, and Take
// leaves an empty store that keeps accepting writes.
func TestMemStoreSegments(t *testing.T) {
	m := NewMemStore()
	var want []byte
	for i, n := range []int{0, 1, 19, 5193, memSegment - 7, 3 * memSegment, 5721, 64} {
		p := bytes.Repeat([]byte{byte(i + 1)}, n)
		if err := m.Write(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p...)
	}
	if !bytes.Equal(m.Bytes(), want) {
		t.Fatal("Bytes differs from the concatenated writes")
	}
	if got := m.Take(); !bytes.Equal(got, want) {
		t.Fatal("Take differs from the written bytes")
	}
	if m.Bytes() != nil || m.Take() != nil {
		t.Fatal("store not empty after Take")
	}
	if err := m.Write([]byte("next round")); err != nil {
		t.Fatal(err)
	}
	if got := m.Take(); string(got) != "next round" {
		t.Fatalf("Take after Take = %q", got)
	}
}

// TestMemStoreWriteCopiesOnlyItsRecord: once a journal holds megabytes,
// appending one more record still allocates only a fresh segment now
// and then, never a buffer for the whole journal.
func TestMemStoreWriteCopiesOnlyItsRecord(t *testing.T) {
	m := NewMemStore()
	rec := make([]byte, 5200)
	for m.n < 4<<20 {
		if err := m.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	var grown int
	allocs := testing.AllocsPerRun(200, func() {
		segs := cap(m.segs)
		if err := m.Write(rec); err != nil {
			t.Fatal(err)
		}
		if cap(m.segs) != segs {
			grown++
		}
	})
	// One 64 KiB segment per ~12 records, plus the rare growth of the
	// segment index.
	if allocs > 0.2 {
		t.Fatalf("%.2f allocations per record append", allocs)
	}
	if grown > 2 {
		t.Fatalf("segment index grew %d times in 200 appends", grown)
	}
}

// TestAppendEncodedMatchesAppend: a payload encoded in place frames to
// the same bytes as the same payload passed to Append.
func TestAppendEncodedMatchesAppend(t *testing.T) {
	payload := []byte("page record payload")
	a, b := NewMemStore(), NewMemStore()
	ja, jb := NewJournal(a), NewJournal(b)
	if err := ja.Append(1, 1, payload); err != nil {
		t.Fatal(err)
	}
	if err := jb.AppendEncoded(1, 1, len(payload), func(p []byte) { copy(p, payload) }); err != nil {
		t.Fatal(err)
	}
	if err := ja.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := jb.Commit(1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) || ja.BytesWritten() != jb.BytesWritten() {
		t.Fatal("AppendEncoded framed differently from Append")
	}
	recs := mustReplay(t, b.Bytes(), 1)
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, payload) {
		t.Fatalf("replayed %+v", recs)
	}
}
