// Package salus is a from-scratch reproduction of "Salus: Efficient
// Security Support for CXL-Expanded GPU Memory" (HPCA 2024): a security
// model for two-tier GPU memory (device HBM/GDDR + CXL expansion) whose
// metadata is decoupled from the physical location of data, so page
// migration between tiers needs no re-encryption and minimal metadata
// traffic.
//
// The package exposes two layers:
//
//   - The functional library (this package, re-exporting
//     internal/securemem): a protected two-tier memory with real
//     counter-mode encryption, truncated keyed MACs, and Bonsai Merkle
//     Trees, usable as a reference implementation of the paper's
//     mechanisms. Open a System, Read and Write through it, and observe
//     migration, lazy metadata fetch, dirty tracking, and attack detection
//     via Stats and the error values.
//
//   - The evaluation stack (internal/system, internal/experiments, and the
//     cmd/ tools): a discrete-event timing simulator of a Volta-like GPU
//     with CXL expansion that regenerates every table and figure of the
//     paper's evaluation. See cmd/salus-bench.
package salus

import (
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
)

// Model selects the protection scheme of a System.
type Model = securemem.Model

// Protection models.
const (
	// ModelNone stores plaintext with no metadata (baseline for
	// comparisons; offers no protection).
	ModelNone = securemem.ModelNone
	// ModelConventional binds security metadata to physical locations, as
	// in prior GPU memory-protection work: every page migration decrypts
	// and re-encrypts the page.
	ModelConventional = securemem.ModelConventional
	// ModelSalus is the paper's unified model: metadata is indexed by the
	// permanent CXL address, migration moves ciphertext verbatim, majors
	// travel embedded in MAC sectors, MAC sectors are fetched on first
	// access, and eviction writes back only dirty chunks.
	ModelSalus = securemem.ModelSalus
)

// Config sizes a System.
type Config = securemem.Config

// HomeAddr is a byte address in the CXL (home) address space — the
// permanent identity of a datum; all security metadata is keyed by it.
type HomeAddr = securemem.HomeAddr

// DevAddr is a byte address in the GPU device tier — the transient
// physical location of a resident page.
type DevAddr = securemem.DevAddr

// System is a protected two-tier memory with transparent page migration.
type System = securemem.System

// Concurrent is a goroutine-safe wrapper around System.
type Concurrent = securemem.Concurrent

// OpStats counts the security and migration operations a System performed.
// Link counters are not among them: read those from the attached Link's
// Stats().
type OpStats = securemem.OpStats

// Geometry fixes the layout constants (sector, block, chunk, page sizes).
type Geometry = config.Geometry

// Detection errors returned by System.Read/Write.
var (
	// ErrIntegrity reports a failed MAC check: tampered or spliced data.
	ErrIntegrity = securemem.ErrIntegrity
	// ErrFreshness reports a failed integrity-tree check: replayed
	// metadata.
	ErrFreshness = securemem.ErrFreshness
	// ErrOutOfRange reports an access beyond the home address space.
	ErrOutOfRange = securemem.ErrOutOfRange
	// ErrTransient reports a retryable link fault that persisted past the
	// retry budget (only with a fault injector attached).
	ErrTransient = securemem.ErrTransient
	// ErrPoison reports an uncorrectable media error: the addressed data
	// is lost and its region quarantined.
	ErrPoison = securemem.ErrPoison
	// ErrImageMismatch reports a Resume whose config or geometry disagrees
	// with the image's recorded dimensions.
	ErrImageMismatch = securemem.ErrImageMismatch
	// ErrTornCheckpoint reports checkpoint-journal damage before the
	// trusted epoch's commit record during Recover.
	ErrTornCheckpoint = crash.ErrTornCheckpoint
	// ErrRollback reports a checkpoint journal whose commits stop short of
	// the trusted epoch: a stale journal replayed against a newer root.
	ErrRollback = crash.ErrRollback
	// ErrPowerLost reports a write or sync on a crash-injected store after
	// its configured power-cut point.
	ErrPowerLost = crash.ErrPowerLost
	// ErrLinkDown reports a home-tier operation refused because the CXL
	// link is down (only with a link attached; see System.AttachLink).
	ErrLinkDown = securemem.ErrLinkDown
	// ErrDegraded reports a home-tier operation refused while the link
	// circuit breaker is open after repeated failures.
	ErrDegraded = securemem.ErrDegraded
	// ErrQueueFull reports an eviction writeback that could not be parked
	// because the dirty-writeback queue is at capacity.
	ErrQueueFull = securemem.ErrQueueFull
	// ErrWritebacksPending reports a Suspend or Checkpoint attempted while
	// parked writebacks have not yet been drained.
	ErrWritebacksPending = securemem.ErrWritebacksPending
	// ErrGeometry reports a Config whose geometry the security engine
	// cannot serve (e.g. a sector size other than the 32 B the counter
	// and MAC layout are built around).
	ErrGeometry = securemem.ErrGeometry
)

// RetryPolicy bounds the transient-fault retry loop of a fault-armed
// System; see System.AttachFaults.
type RetryPolicy = securemem.RetryPolicy

// DefaultRetryPolicy mirrors a CXL link-layer retry budget.
func DefaultRetryPolicy() RetryPolicy { return securemem.DefaultRetryPolicy() }

// DefaultGeometry returns the paper's layout: 32 B sectors, 128 B blocks,
// 256 B interleaving chunks, 4 KiB pages.
func DefaultGeometry() Geometry {
	return config.Default().Geometry
}

// New creates a protected two-tier memory. See securemem.Config for the
// fields; zero-valued keys fall back to built-in development keys.
func New(cfg Config) (*System, error) {
	return securemem.New(cfg)
}

// NewDefault creates a Salus-protected memory of totalPages pages whose
// device tier holds devicePages pages, using the default geometry.
func NewDefault(totalPages, devicePages int) (*System, error) {
	return securemem.New(securemem.Config{
		Geometry:    DefaultGeometry(),
		Model:       ModelSalus,
		TotalPages:  totalPages,
		DevicePages: devicePages,
	})
}

// NewConcurrent creates a goroutine-safe protected memory.
func NewConcurrent(cfg Config) (*Concurrent, error) {
	return securemem.NewConcurrent(cfg)
}

// Link models the CXL interconnect between the device and home tiers: a
// deterministic Up/Degraded/Down state machine driven by a LinkPlan, with
// a circuit breaker in front of it. Attach one with System.AttachLink to
// enable degraded-mode operation.
type Link = link.Link

// LinkPlan scripts the link's behaviour over time; see ParseLinkPlan.
type LinkPlan = link.Plan

// ManualLink is a LinkPlan driven explicitly via Set, for tests and
// operational toggles.
type ManualLink = link.Manual

// LinkState is the instantaneous health of the link.
type LinkState = link.State

// Link states.
const (
	// LinkUp means transfers succeed at nominal latency.
	LinkUp = link.StateUp
	// LinkDegraded means transfers succeed but carry extra latency.
	LinkDegraded = link.StateDegraded
	// LinkDown means transfers are refused.
	LinkDown = link.StateDown
)

// BreakerConfig tunes the link circuit breaker: Threshold consecutive
// failures open it; while open, Cooldown attempts fast-fail before a
// half-open probe.
type BreakerConfig = link.Config

// DefaultBreakerConfig returns the standard breaker tuning.
func DefaultBreakerConfig() BreakerConfig { return link.DefaultConfig() }

// NewLink wraps plan in a circuit breaker. Pass the result to
// System.AttachLink.
func NewLink(plan LinkPlan, cfg BreakerConfig) *Link { return link.New(plan, cfg) }

// NewManualLink returns a plan that stays Up until Set is called.
func NewManualLink() *ManualLink { return link.NewManual() }

// ParseLinkPlan parses a flap-plan spec: either scripted windows such as
// "down@40..70,deg@100..200:16" (ordinal ranges, an optional :latency on
// degraded windows) or a seeded stochastic plan such as
// "rate:seed=1,flap=0.02,downlen=24,deg=0.02,deglen=16,lat=12".
func ParseLinkPlan(spec string) (LinkPlan, error) { return link.ParsePlan(spec) }

// DefaultWritebackQueueCap is the dirty-writeback queue capacity used when
// System.AttachLink is given a non-positive queueCap.
const DefaultWritebackQueueCap = securemem.DefaultWritebackQueueCap

// TrustedRoot is the TCB state of a suspended System: the integrity-tree
// roots that must be kept in trusted storage while the (untrusted) image
// is at rest.
type TrustedRoot = securemem.TrustedRoot

// Resume reconstructs a suspended Salus system from its untrusted image
// and trusted root; a tampered or replayed image is rejected. See
// System.Suspend.
func Resume(cfg Config, image []byte, root TrustedRoot) (*System, error) {
	return securemem.Resume(cfg, image, root)
}

// UnmarshalTrustedRoot decodes a TrustedRoot serialised with
// TrustedRoot.MarshalBinary, rejecting damaged or truncated encodings. The
// encoding carries no authentication — the root must still travel through
// trusted storage.
func UnmarshalTrustedRoot(data []byte) (TrustedRoot, error) {
	return securemem.UnmarshalTrustedRoot(data)
}

// StableStore is the durability interface a checkpoint journal writes
// through: appending writes separated by explicit sync barriers.
type StableStore = crash.StableStore

// MemStore is an always-durable in-memory StableStore for checkpoint
// journals.
type MemStore = crash.MemStore

// NewMemStore returns an empty in-memory journal store.
func NewMemStore() *MemStore { return crash.NewMemStore() }

// Journal is a write-ahead checkpoint journal with two-phase epoch commit;
// pass one to System.Checkpoint.
type Journal = crash.Journal

// NewJournal returns a checkpoint journal writing through store.
func NewJournal(store StableStore) *Journal { return crash.NewJournal(store) }

// CrashStore is a StableStore that simulates power loss at a chosen write
// boundary, for crash-recovery testing; see crash.NewCrashStore.
type CrashStore = crash.CrashStore

// DamageMode selects how a CrashStore's unsynced writes appear on the
// medium after the cut.
type DamageMode = crash.DamageMode

// Damage modes for NewCrashStore.
const (
	// CutClean drops every unsynced write.
	CutClean = crash.CutClean
	// CutTorn applies a prefix of the unsynced writes, tearing the last.
	CutTorn = crash.CutTorn
	// CutReorder applies an arbitrary subset at their natural offsets.
	CutReorder = crash.CutReorder
	// CutCorrupt additionally flips a bit in the synced region.
	CutCorrupt = crash.CutCorrupt
)

// NewCrashStore returns a store that loses power at event boundary
// cutAfter (writes and syncs both count), damaging the unsynced tail per
// mode; deterministic in (cutAfter, mode, seed).
func NewCrashStore(cutAfter int, mode DamageMode, seed int64) *CrashStore {
	return crash.NewCrashStore(cutAfter, mode, seed)
}

// Recover reconstructs a Salus system from a checkpoint journal and the
// trusted root of the epoch to restore. Journal damage before the trusted
// epoch's commit surfaces as ErrTornCheckpoint, a journal whose commits
// stop short of the trusted epoch as ErrRollback, and a journal whose
// counters disagree with the trusted roots as ErrFreshness. See
// System.Checkpoint.
func Recover(cfg Config, journal []byte, root TrustedRoot) (*System, error) {
	return securemem.Recover(cfg, journal, root)
}
