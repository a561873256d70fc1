package lockdiscipline

import (
	"sync"
	"sync/atomic"
)

// shard is one stripe's lock, padded to its own cache line.
type shard struct {
	mu sync.Mutex
	_  [56]byte
}

// Sharded guards cells with one lock per shard: cell i belongs to shard
// i mod len(shards).
type Sharded struct {
	shards []shard
	cells  []int
}

// lock acquires shard i's lock and returns holding it.
func (s *Sharded) lock(i int) { s.shards[i%len(s.shards)].mu.Lock() }

// unlock releases shard i's lock.
func (s *Sharded) unlock(i int) { s.shards[i%len(s.shards)].mu.Unlock() }

// Get locks through the acquiring helper; no finding.
func (s *Sharded) Get(i int) int {
	s.lock(i)
	defer s.unlock(i)
	return s.cells[i]
}

// Set locks the element directly; no finding.
func (s *Sharded) Set(i, v int) {
	s.shards[i%len(s.shards)].mu.Lock()
	defer s.shards[i%len(s.shards)].mu.Unlock()
	s.cells[i] = v
}

// Peek reads a cell with no lock at all.
func (s *Sharded) Peek(i int) int { return s.cells[i] } // want: unguarded access

// size locks and releases a shard itself, so calling it leaves nothing
// held.
func (s *Sharded) size() int {
	s.shards[0].mu.Lock()
	defer s.shards[0].mu.Unlock()
	return len(s.cells)
}

// Last calls a self-contained locking helper, then reads cells with no
// lock held.
func (s *Sharded) Last() int { return s.cells[s.size()-1] } // want: unguarded access

// Meter pairs a striped lock with fields of both kinds.
type Meter struct {
	stripes [4]shard
	hits    atomic.Int64 // synchronises itself
	total   int          // guarded by the stripes
}

// Hits reads the atomic without a lock; no finding.
func (m *Meter) Hits() int64 { return m.hits.Load() }

// Total reads a guarded field without a lock.
func (m *Meter) Total() int { return m.total } // want: unguarded access
