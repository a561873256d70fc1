package crash

import "math/rand"

// MemStore is a trivial in-memory StableStore with no failure model: every
// write is immediately durable. It backs normal (non-injected) checkpoint
// runs and tests.
type MemStore struct {
	buf []byte
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// Write appends p.
func (m *MemStore) Write(p []byte) error {
	m.buf = append(m.buf, p...)
	return nil
}

// Sync is a no-op: MemStore writes are always durable.
func (m *MemStore) Sync() error { return nil }

// Bytes returns a copy of everything written.
func (m *MemStore) Bytes() []byte { return append([]byte(nil), m.buf...) }

// Tail returns a copy of everything written from byte off on: the
// journal delta since a reader last looked, without copying the
// prefix it already has. off beyond the written length returns nil.
func (m *MemStore) Tail(off int) []byte {
	if off >= len(m.buf) {
		return nil
	}
	return append([]byte(nil), m.buf[off:]...)
}

// DamageMode selects how the writes issued after the last successful Sync
// — the contents of the device's volatile write cache at the instant of
// power loss — appear on the medium afterwards.
type DamageMode int

const (
	// CutClean drops every unsynced write: the cache was lost whole.
	CutClean DamageMode = iota
	// CutTorn applies a prefix of the unsynced writes in order, tearing
	// the last applied write at an arbitrary byte: the cache drained
	// front-to-back and died mid-sector.
	CutTorn
	// CutReorder applies an arbitrary subset of the unsynced writes at
	// their natural offsets, filling the gaps with garbage: the cache
	// drained out of order.
	CutReorder
	// CutCorrupt drops the unsynced writes and additionally flips one bit
	// somewhere in the synced region: media corruption on top of the
	// power loss. Unlike the other modes this damages data a Sync had
	// promised durable, so recovery is expected to detect it rather than
	// reconstruct through it.
	CutCorrupt
	// NumDamageModes counts the modes; crash enumeration loops over
	// DamageMode(0..NumDamageModes-1).
	NumDamageModes
)

// String names the mode.
func (m DamageMode) String() string {
	switch m {
	case CutClean:
		return "clean"
	case CutTorn:
		return "torn"
	case CutReorder:
		return "reorder"
	case CutCorrupt:
		return "corrupt"
	}
	return "damage(?)"
}

// Honest reports whether the mode damages only unsynced writes. At an
// honest cut, recovery must reconstruct the trusted epoch exactly; a
// dishonest mode (CutCorrupt) violates the Sync contract, so recovery may
// instead fail with a typed error.
func (m DamageMode) Honest() bool { return m != CutCorrupt }

type tapeEvent struct {
	data []byte // nil for a sync event
	sync bool
}

// Tape records the full write/sync history of a journal so that a single
// run can afterwards be cut at every boundary. Both writes and syncs are
// events: a crash point between a write and the Sync that would cover it
// is exactly the "commit record written but not yet durable" race, so
// syncs must be enumerable boundaries too. Tape is itself a StableStore:
// use it as the journal's store during the recorded run, then call Cut to
// materialise the medium contents for any crash point.
type Tape struct {
	events []tapeEvent
	writes int
}

// Write records one write event.
func (t *Tape) Write(p []byte) error {
	t.events = append(t.events, tapeEvent{data: append([]byte(nil), p...)})
	t.writes++
	return nil
}

// Sync records one durability barrier.
func (t *Tape) Sync() error {
	t.events = append(t.events, tapeEvent{sync: true})
	return nil
}

// Points returns the number of events recorded. Valid crash points for
// Cut are 0..Points() inclusive: cut e means power was lost after event e
// and before event e+1.
func (t *Tape) Points() int { return len(t.events) }

// Writes returns the number of write events recorded.
func (t *Tape) Writes() int { return t.writes }

// Bytes returns the clean (undamaged, fully synced) medium contents.
func (t *Tape) Bytes() []byte {
	var out []byte
	for _, ev := range t.events {
		out = append(out, ev.data...)
	}
	return out
}

// Cut returns the medium contents after power is lost at crash point e
// (the first e events happened; later ones never did), with the writes
// not yet covered by a Sync damaged per mode. The result is deterministic
// in (e, mode, seed).
func (t *Tape) Cut(e int, mode DamageMode, seed int64) []byte {
	if e < 0 {
		e = 0
	}
	if e > len(t.events) {
		e = len(t.events)
	}
	var durable [][]byte // writes covered by a sync at or before e
	var pending [][]byte // writes still in the volatile cache at e
	for _, ev := range t.events[:e] {
		if ev.sync {
			durable = append(durable, pending...)
			pending = pending[:0]
			continue
		}
		pending = append(pending, ev.data)
	}
	var out []byte
	for _, p := range durable {
		out = append(out, p...)
	}
	rng := rand.New(rand.NewSource(seed<<20 ^ int64(e)<<4 ^ int64(mode)))
	switch mode {
	case CutClean:
		// Volatile cache lost whole.
	case CutTorn:
		if len(pending) > 0 {
			k := rng.Intn(len(pending) + 1)
			for _, p := range pending[:k] {
				out = append(out, p...)
			}
			if k < len(pending) {
				torn := pending[k]
				out = append(out, torn[:rng.Intn(len(torn)+1)]...)
			}
		}
	case CutReorder:
		if len(pending) > 0 {
			applied := make([]bool, len(pending))
			offsets := make([]int, len(pending))
			off, last := 0, -1
			for i, p := range pending {
				offsets[i] = off
				off += len(p)
				if rng.Intn(2) == 0 {
					applied[i] = true
					last = i
				}
			}
			if last >= 0 {
				region := make([]byte, offsets[last]+len(pending[last]))
				rng.Read(region) // garbage where nothing landed
				for i, p := range pending {
					if applied[i] {
						copy(region[offsets[i]:], p)
					}
				}
				out = append(out, region...)
			}
		}
	case CutCorrupt:
		if len(out) > 0 {
			pos := rng.Intn(len(out))
			out[pos] ^= 1 << uint(rng.Intn(8))
		}
	}
	return out
}

// CrashStore is a StableStore that simulates losing power at a chosen
// event boundary: the first cutAfter events (writes and syncs both count)
// succeed, recorded on an internal Tape, and every later Write or Sync
// returns ErrPowerLost. After the run, Durable returns the medium
// contents with the unsynced tail damaged per the configured mode.
type CrashStore struct {
	tape Tape
	cut  int
	mode DamageMode
	seed int64
	dead bool
}

// NewCrashStore returns a store that dies at event boundary cutAfter.
func NewCrashStore(cutAfter int, mode DamageMode, seed int64) *CrashStore {
	return &CrashStore{cut: cutAfter, mode: mode, seed: seed}
}

// Write records p, or reports the power cut.
func (c *CrashStore) Write(p []byte) error {
	if c.dead || len(c.tape.events) >= c.cut {
		c.dead = true
		return ErrPowerLost
	}
	return c.tape.Write(p)
}

// Sync marks recorded writes durable, or reports the power cut.
func (c *CrashStore) Sync() error {
	if c.dead || len(c.tape.events) >= c.cut {
		c.dead = true
		return ErrPowerLost
	}
	return c.tape.Sync()
}

// Dead reports whether the power cut has fired.
func (c *CrashStore) Dead() bool { return c.dead }

// Durable returns the post-crash medium contents.
func (c *CrashStore) Durable() []byte {
	return c.tape.Cut(len(c.tape.events), c.mode, c.seed)
}
