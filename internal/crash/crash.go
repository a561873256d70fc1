// Package crash provides the durable-state counterpart of the runtime
// fault ladder: a write-ahead checkpoint journal over a pluggable stable
// store, plus a power-loss injection harness that can cut power at every
// write boundary and produce torn, partial, and reordered writes.
//
// The journal is an append-only sequence of framed, checksummed records
// grouped into epochs and committed with a two-phase protocol:
//
//	append data records of epoch E      (one store write each)
//	Sync                                (data durable)
//	append commit record of epoch E     (carries the record count)
//	Sync                                (epoch E committed)
//
// Recovery (Replay) scans the journal against the epoch recorded in the
// caller's trusted root and enforces two properties:
//
//   - Crash consistency: damage confined to epochs after the trusted
//     epoch — the normal result of losing power mid-checkpoint — is
//     ignored; the trusted epoch is reconstructed exactly. Damage inside
//     a committed epoch at or before the trusted epoch (a torn or missing
//     record, a checksum mismatch, an epoch ordering violation) is
//     reported as ErrTornCheckpoint, never silently absorbed.
//   - Rollback protection: a journal whose commits stop short of the
//     trusted epoch is a replayed stale image (or a truncation attack)
//     and is rejected with ErrRollback. The trusted epoch is monotonic
//     TCB state; old-but-internally-valid journals never resurrect old
//     counters.
//
// Record checksums are CRC32 — corruption detection, not authentication.
// Cryptographic authentication of the recovered state is the caller's
// job: securemem verifies the rebuilt integrity-tree roots against the
// trusted root after replay.
package crash

import "errors"

// Typed recovery errors. Callers match them with errors.Is.
var (
	// ErrTornCheckpoint reports journal damage inside a committed epoch:
	// a torn, missing, reordered, or corrupted record at or before the
	// trusted epoch. The journal cannot reconstruct the trusted state.
	ErrTornCheckpoint = errors.New("crash: torn checkpoint (journal damaged within a committed epoch)")
	// ErrRollback reports a journal whose commits stop before the trusted
	// epoch: a replayed stale image or a truncated journal. Accepting it
	// would roll security counters back, so it is always rejected.
	ErrRollback = errors.New("crash: stale journal rejected (rollback of the trusted epoch)")
	// ErrPowerLost reports a store operation attempted after the
	// injected power cut.
	ErrPowerLost = errors.New("crash: simulated power loss")
)

// StableStore is the durable medium a Journal writes through. Each Write
// is one write boundary — the unit at which the power-loss harness can
// cut — and Sync is the durability barrier: data from writes issued
// before a successful Sync survives any later power loss intact. Write
// must not keep p: the Journal reuses one buffer for every record.
type StableStore interface {
	Write(p []byte) error
	Sync() error
}
