package tenant

import (
	"errors"
	"sync"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Tenant is one cryptographic domain over the shared pool. All
// addresses are pool-global home addresses; the tenant refuses anything
// outside its slice with ErrTenantDenied before a single engine or
// backing byte is touched, then translates in-slice addresses to its
// private engine, which runs with tenant-derived keys over the tenant's
// backing window.
//
// Lock order: state -> mu -> the engine's internal locks. state guards
// the engine pointer (held shared across every delegated op, exclusively
// only while a staged recovery's Commit swaps in the rebuilt engine); mu guards
// the op counters, whose in-slice attempt count clocks the admission
// bucket (the bucket's own lock nests inside mu).
type Tenant struct {
	id       string
	domain   string
	basePage int
	pages    int
	frames   int
	base     uint64 // slice start, pool-global bytes
	size     uint64 // slice length in bytes
	shards   int
	queueCap int
	memCfg   securemem.Config

	state sync.RWMutex
	eng   *securemem.Concurrent

	mu     sync.Mutex
	bucket *sim.TokenBucket // op quota, clocked by in-slice attempts
	ops    stats.TenantOps
}

// ID returns the tenant identifier.
func (t *Tenant) ID() string {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.id
}

// Domain returns a short fingerprint of the tenant's key domain.
// Distinct tenants always report distinct domains; the underlying key
// material is never exposed.
func (t *Tenant) Domain() string {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.domain
}

// Base returns the slice's first pool-global byte address.
func (t *Tenant) Base() securemem.HomeAddr {
	t.state.RLock()
	defer t.state.RUnlock()
	return securemem.HomeAddr(t.base)
}

// Size returns the slice length in bytes.
func (t *Tenant) Size() uint64 {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.size
}

// Pages returns the slice's home size in pages.
func (t *Tenant) Pages() int {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.pages
}

// Frames returns the tenant's device-frame quota.
func (t *Tenant) Frames() int {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.frames
}

// admit runs the isolation and quota gates for an n-byte access at
// pool-global addr and returns the slice-local engine address. Denials
// are counted and typed; nothing downstream of this gate sees an
// out-of-slice address. Callers hold state shared (mu nests inside).
func (t *Tenant) admit(addr securemem.HomeAddr, n int, write bool) (securemem.HomeAddr, error) {
	a := uint64(addr)
	t.mu.Lock()
	defer t.mu.Unlock()
	// Overflow-safe slice containment: [a, a+n) within [base, base+size).
	if a < t.base || a-t.base > t.size || uint64(n) > t.size-(a-t.base) {
		t.ops.Denied++
		return 0, ErrTenantDenied
	}
	// The quota gains OpRate tokens per in-slice attempt, so a storm of
	// attempts drains to a fixed duty cycle whatever the wall clock does.
	if !t.bucket.Take(sim.Cycle(t.ops.Reads + t.ops.Writes + t.ops.Quota + 1)) {
		t.ops.Quota++
		return 0, ErrQuota
	}
	if write {
		t.ops.Writes++
	} else {
		t.ops.Reads++
	}
	return securemem.HomeAddr(a - t.base), nil
}

// note classifies a completed engine op's failure into the tenant
// counters. Callers hold state shared.
func (t *Tenant) note(err error) {
	if err == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch {
	case isIntegrity(err):
		t.ops.Integrity++
	case isFault(err):
		t.ops.Faults++
	}
}

// Closed reports whether the tenant was retired by Pool.DestroyTenant.
func (t *Tenant) Closed() bool {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.eng == nil
}

// Read reads len(buf) bytes at pool-global addr from the tenant's
// domain. Out-of-slice ranges fail with ErrTenantDenied and leave buf
// untouched; quota exhaustion fails with ErrQuota; a destroyed tenant
// fails with ErrTenantClosed.
func (t *Tenant) Read(addr securemem.HomeAddr, buf []byte) error {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return ErrTenantClosed
	}
	local, err := t.admit(addr, len(buf), false)
	if err != nil {
		return err
	}
	err = t.eng.Read(local, buf)
	t.note(err)
	return err
}

// Write writes data at pool-global addr into the tenant's domain, with
// the same gate as Read.
func (t *Tenant) Write(addr securemem.HomeAddr, data []byte) error {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return ErrTenantClosed
	}
	local, err := t.admit(addr, len(data), true)
	if err != nil {
		return err
	}
	err = t.eng.Write(local, data)
	t.note(err)
	return err
}

// Checkpoint commits the tenant's own epoch to its own journal; sibling
// epochs are untouched. The checkpoint itself is not quota-gated — an
// operator durability action must not be starved by a tenant's traffic
// budget.
func (t *Tenant) Checkpoint(j *crash.Journal) (securemem.TrustedRoot, error) {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return securemem.TrustedRoot{}, ErrTenantClosed
	}
	root, err := t.eng.Checkpoint(j)
	t.mu.Lock()
	if err == nil {
		t.ops.Checkpoints++
	}
	t.mu.Unlock()
	t.note(err)
	return root, err
}

// FullCheckpoint commits one epoch carrying the tenant's whole home
// slice, making the journal self-contained from that epoch on — the
// bootstrap round of a live migration's sync stream.
func (t *Tenant) FullCheckpoint(j *crash.Journal) (securemem.TrustedRoot, error) {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return securemem.TrustedRoot{}, ErrTenantClosed
	}
	root, err := t.eng.FullCheckpoint(j)
	t.mu.Lock()
	if err == nil {
		t.ops.Checkpoints++
	}
	t.mu.Unlock()
	t.note(err)
	return root, err
}

// Epoch returns the tenant's checkpoint epoch (0 once destroyed).
func (t *Tenant) Epoch() uint64 {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return 0
	}
	return t.eng.Epoch()
}

// Flush evicts every resident page in the tenant's domain.
func (t *Tenant) Flush() error {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return ErrTenantClosed
	}
	err := t.eng.Flush()
	t.note(err)
	return err
}

// QueuedWritebacks reports the tenant's parked dirty writebacks.
func (t *Tenant) QueuedWritebacks() int {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return 0
	}
	return t.eng.QueuedWritebacks()
}

// DrainWritebacks drains the tenant's parked writebacks.
func (t *Tenant) DrainWritebacks() (int, error) {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return 0, ErrTenantClosed
	}
	n, err := t.eng.DrainWritebacks()
	t.note(err)
	return n, err
}

// AttachFaults arms a fault injector on this tenant's engine only; a
// destroyed tenant has no engine to arm and ignores the call.
func (t *Tenant) AttachFaults(inj fault.Injector, policy securemem.RetryPolicy, clock *sim.Engine) {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return
	}
	t.eng.AttachFaults(inj, policy, clock)
}

// AttachLink arms a link model on this tenant's engine only, using the
// pool's per-tenant writeback queue bound.
func (t *Tenant) AttachLink(l *link.Link, clock *sim.Engine) {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return
	}
	t.eng.AttachLink(l, clock, t.queueCap)
}

// ForceLinkUp is the operator link reset for this tenant's engine.
func (t *Tenant) ForceLinkUp() {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return
	}
	t.eng.ForceLinkUp()
}

// StateDigest returns the tenant's quiesced state digest — the oracle
// used to prove a sibling's crash left this tenant byte-identical. A
// destroyed tenant digests to all-zero.
func (t *Tenant) StateDigest() [32]byte {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return [32]byte{}
	}
	return t.eng.StateDigest()
}

// StateDigestFromScratch is StateDigest recomputed from the stored bytes
// rather than the engine's leaf cache: the form every oracle compares.
func (t *Tenant) StateDigestFromScratch() [32]byte {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return [32]byte{}
	}
	return t.eng.StateDigestFromScratch()
}

// Engine returns the tenant's engine (nil once destroyed). The engine
// speaks slice-local addresses and bypasses the tenant's containment
// and quota gates, so it must only front trusted surfaces — a
// serve.Server multiplexing this tenant's own traffic, or a migration
// cutover swapping service from a source engine to a destination
// engine. Hostile-facing paths go through Read/Write.
func (t *Tenant) Engine() *securemem.Concurrent {
	t.state.RLock()
	defer t.state.RUnlock()
	return t.eng
}

// MigrationKey derives the tenant's migration transport key: a secret
// bound to the tenant's MAC key domain, equal on any pool that derives
// the same tenant from the same masters — which is exactly the
// precondition for moving its ciphertext verbatim. The attested
// migration stream MACs every record under this key, so a transport
// endpoint that cannot produce it can neither impersonate a source nor
// accept as a destination.
func (t *Tenant) MigrationKey() ([]byte, error) {
	t.state.RLock()
	defer t.state.RUnlock()
	if t.eng == nil {
		return nil, ErrTenantClosed
	}
	return migrationKey(t.memCfg.MACKey, t.id), nil
}

// Stats returns a snapshot of the tenant's op counters.
func (t *Tenant) Stats() stats.TenantOps {
	t.state.RLock()
	defer t.state.RUnlock()
	t.mu.Lock()
	defer t.mu.Unlock()
	ops := t.ops
	ops.Name = t.id
	return ops
}

// isIntegrity reports whether err is a cryptographic verification
// refusal (tampered, spliced, or replayed data detected).
func isIntegrity(err error) bool {
	return errors.Is(err, securemem.ErrIntegrity) || errors.Is(err, securemem.ErrFreshness)
}

// isFault reports whether err is a typed media/link refusal.
func isFault(err error) bool {
	return errors.Is(err, securemem.ErrTransient) ||
		errors.Is(err, securemem.ErrPoison) ||
		errors.Is(err, securemem.ErrLinkDown) ||
		errors.Is(err, securemem.ErrDegraded) ||
		errors.Is(err, securemem.ErrQueueFull) ||
		errors.Is(err, securemem.ErrWritebacksPending)
}
