package securemem

import (
	"sync"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/sim"
)

// Concurrent wraps a System for shared use by multiple goroutines with a
// sharded lock design: the home space is partitioned into nShards page
// groups (page p belongs to shard p % nShards, see shard.go), each with
// its own mutex, so accesses that touch different shards proceed in
// parallel. A shard lock guards everything of its shard: its frames and
// pages, and its shardState (device integrity subtree, LRU clock and
// access counters). The locking rules:
//
//   - An address operation locks exactly the shards its byte range
//     touches, always in ascending shard order, so multi-shard
//     acquisitions cannot deadlock against each other.
//   - A whole-system operation (Flush, Checkpoint, Suspend, Stats,
//     StateDigest, the attaches, each drain step) locks every shard in
//     ascending order, which quiesces every in-flight access.
//   - The immutable queries (Size, Model, Shards, ShardOf) take no lock.
//
// The lock order is therefore shardLock.mu (ascending) -> the
// System-internal leaf locks (sysLocks fields, bmt.Tree.mu); nothing in
// the package acquires them in any other order.
type Concurrent struct {
	layout
	shards []shardLock
	sys    *System
}

// layout is the part of a Concurrent fixed at construction. It carries
// no lock because nothing ever writes it after NewConcurrent or
// ConcurrentFrom returns.
type layout struct {
	size     uint64 // home address-space size in bytes
	pageSize uint64
	nShards  int
	model    Model
}

// Size returns the home address-space size in bytes.
func (l layout) Size() uint64 { return l.size }

// Model returns the active protection model.
func (l layout) Model() Model { return l.model }

// Shards reports how many page shards the lock design is using.
func (l layout) Shards() int { return l.nShards }

// ShardOf returns the shard owning the page of addr. Addresses past the
// end map into range too, so callers may use it as a stripe key before
// any bounds check.
func (l layout) ShardOf(addr HomeAddr) int {
	return int(uint64(addr) / l.pageSize % uint64(l.nShards))
}

// shardLock is one shard's mutex, padded out to its own cache line so
// adjacent shards do not false-share under contention.
type shardLock struct {
	mu sync.Mutex
	_  [cacheLine - 8]byte
}

// NewConcurrent builds a protected memory safe for concurrent use. The
// shard count comes from cfg.Shards (zero selects DefaultShards) and is
// clamped so every shard owns at least one page and one device frame.
func NewConcurrent(cfg Config) (*Concurrent, error) {
	sys, err := New(cfg)
	if err != nil {
		return nil, err
	}
	sys.configureSharding(cfg.Shards)
	return wrap(sys), nil
}

// ConcurrentFrom wraps an existing System — typically one produced by
// Recover — for shared use, re-applying the sharded lock design. Sharding
// can only be (re)configured while no page is resident; a recovered
// System qualifies (recovery rebuilds the home tier and leaves the device
// tier empty). If pages are already resident the existing shard count is
// kept, so the wrapper is always safe, just possibly narrower than asked.
func ConcurrentFrom(sys *System, shards int) *Concurrent {
	resident := false
	for _, fi := range sys.pageTable {
		if fi >= 0 {
			resident = true
			break
		}
	}
	if !resident {
		sys.configureSharding(shards)
	}
	return wrap(sys)
}

// wrap builds the Concurrent over a System whose sharding is final.
func wrap(sys *System) *Concurrent {
	return &Concurrent{
		layout: layout{
			size:     sys.Size(),
			pageSize: uint64(sys.geo.PageSize),
			nShards:  sys.Shards(),
			model:    sys.Model(),
		},
		shards: make([]shardLock, sys.Shards()),
		sys:    sys,
	}
}

// AttachFaults is a goroutine-safe System.AttachFaults: every shard lock
// quiesces in-flight accesses before the injector is armed, so no access
// can observe a half-attached fault model.
func (c *Concurrent) AttachFaults(inj fault.Injector, policy RetryPolicy, clock *sim.Engine) {
	defer c.unlockRange(c.lockAll())
	c.sys.AttachFaults(inj, policy, clock)
}

// AttachLink is a goroutine-safe System.AttachLink, quiescing in-flight
// accesses for the same reason as AttachFaults.
func (c *Concurrent) AttachLink(l *link.Link, clock *sim.Engine, queueCap int) {
	defer c.unlockRange(c.lockAll())
	c.sys.AttachLink(l, clock, queueCap)
}

// ForceLinkUp is a goroutine-safe operator link reset. It waits out the
// in-flight accesses, which is what orders it against AttachLink.
func (c *Concurrent) ForceLinkUp() {
	defer c.unlockRange(c.lockAll())
	c.sys.ForceLinkUp()
}

// lockRange locks every shard the byte range [base, base+n) touches, in
// ascending shard order, and returns the held set as a bitmask for
// unlockRange. Empty or out-of-bounds ranges and ranges spanning at
// least nShards pages take every shard: the underlying operation either
// fails its own bounds check without mutating anything, or genuinely
// touches the whole system.
func (c *Concurrent) lockRange(base, n uint64) uint64 {
	ns := len(c.shards)
	if ns == 1 {
		c.shards[0].mu.Lock()
		return 1
	}
	if n == 0 {
		n = 1
	}
	if base >= c.size || n > c.size-base {
		return c.lockAll()
	}
	first := base / c.pageSize
	last := (base + n - 1) / c.pageSize
	if last-first+1 >= uint64(ns) {
		return c.lockAll()
	}
	var mask uint64
	for p := first; p <= last; p++ {
		mask |= uint64(1) << uint(p%uint64(ns))
	}
	for i := 0; i < ns; i++ {
		if mask&(uint64(1)<<uint(i)) != 0 {
			c.shards[i].mu.Lock()
		}
	}
	return mask
}

// lockAll locks every shard in ascending order and returns the held set
// for unlockRange: the whole-system exclusion.
func (c *Concurrent) lockAll() uint64 {
	for i := range c.shards {
		c.shards[i].mu.Lock()
	}
	return (uint64(1) << uint(len(c.shards))) - 1
}

// unlockRange releases the shards lockRange or lockAll locked.
func (c *Concurrent) unlockRange(mask uint64) {
	for i := len(c.shards) - 1; i >= 0; i-- {
		if mask&(uint64(1)<<uint(i)) != 0 {
			c.shards[i].mu.Unlock()
		}
	}
}

// Read is a goroutine-safe System.Read; reads of pages in different
// shards run in parallel.
func (c *Concurrent) Read(addr HomeAddr, buf []byte) error {
	mask := c.lockRange(uint64(addr), uint64(len(buf)))
	defer c.unlockRange(mask)
	return c.sys.Read(addr, buf)
}

// Write is a goroutine-safe System.Write.
func (c *Concurrent) Write(addr HomeAddr, data []byte) error {
	mask := c.lockRange(uint64(addr), uint64(len(data)))
	defer c.unlockRange(mask)
	return c.sys.Write(addr, data)
}

// WriteThrough is a goroutine-safe System.WriteThrough.
func (c *Concurrent) WriteThrough(addr HomeAddr, data []byte) error {
	mask := c.lockRange(uint64(addr), uint64(len(data)))
	defer c.unlockRange(mask)
	return c.sys.WriteThrough(addr, data)
}

// ReadThrough is a goroutine-safe System.ReadThrough.
func (c *Concurrent) ReadThrough(addr HomeAddr, buf []byte) error {
	mask := c.lockRange(uint64(addr), uint64(len(buf)))
	defer c.unlockRange(mask)
	return c.sys.ReadThrough(addr, buf)
}

// Flush is a goroutine-safe System.Flush. It quiesces the whole system:
// every shard's in-flight accesses complete before the eviction sweep.
func (c *Concurrent) Flush() error {
	defer c.unlockRange(c.lockAll())
	return c.sys.Flush()
}

// Checkpoint is a goroutine-safe System.Checkpoint: the epoch is
// serialised against concurrent accesses, so a checkpoint taken under
// load captures a consistent point-in-time state.
func (c *Concurrent) Checkpoint(j *crash.Journal) (TrustedRoot, error) {
	defer c.unlockRange(c.lockAll())
	return c.sys.Checkpoint(j)
}

// FullCheckpoint is a goroutine-safe System.FullCheckpoint: every home
// page rides the committed epoch, making the journal self-contained
// from this epoch on (the migration bootstrap round).
func (c *Concurrent) FullCheckpoint(j *crash.Journal) (TrustedRoot, error) {
	defer c.unlockRange(c.lockAll())
	return c.sys.FullCheckpoint(j)
}

// Suspend is a goroutine-safe System.Suspend.
func (c *Concurrent) Suspend() ([]byte, TrustedRoot, error) {
	defer c.unlockRange(c.lockAll())
	return c.sys.Suspend()
}

// DrainWritebacks is a goroutine-safe System.DrainWritebacks. Each
// queued writeback drains under its own acquisition of every shard lock,
// so concurrent accesses interleave with a long drain instead of stalling
// behind it.
func (c *Concurrent) DrainWritebacks() (int, error) {
	n := 0
	for {
		mask := c.lockAll()
		if c.sys.QueuedWritebacks() == 0 {
			c.unlockRange(mask)
			return n, nil
		}
		err := c.sys.drainOne()
		c.unlockRange(mask)
		if err != nil {
			return n, err
		}
		n++
	}
}

// QueuedWritebacks is a goroutine-safe System.QueuedWritebacks.
func (c *Concurrent) QueuedWritebacks() int {
	defer c.unlockRange(c.lockAll())
	return c.sys.QueuedWritebacks()
}

// Epoch is a goroutine-safe System.Epoch. The epoch only advances under
// Checkpoint, which holds every shard lock.
func (c *Concurrent) Epoch() uint64 {
	defer c.unlockRange(c.lockAll())
	return c.sys.Epoch()
}

// Stats is a goroutine-safe System.Stats. It holds every shard lock so
// the returned snapshot is consistent: no access is mid-flight while the
// counters are summed.
func (c *Concurrent) Stats() OpStats {
	defer c.unlockRange(c.lockAll())
	return c.sys.Stats()
}

// StateDigest is a goroutine-safe System.StateDigest: every shard lock
// quiesces in-flight accesses so the digest covers a consistent state.
func (c *Concurrent) StateDigest() [32]byte {
	defer c.unlockRange(c.lockAll())
	return c.sys.StateDigest()
}

// StateDigestFromScratch is a goroutine-safe
// System.StateDigestFromScratch, quiescing like StateDigest.
func (c *Concurrent) StateDigestFromScratch() [32]byte {
	defer c.unlockRange(c.lockAll())
	return c.sys.StateDigestFromScratch()
}

// Unwrap returns the underlying System for single-threaded phases. The
// caller must guarantee no concurrent use while holding it.
//
// salus-lint:ignore lockdiscipline Unwrap is the documented single-threaded escape hatch
func (c *Concurrent) Unwrap() *System { return c.sys }
