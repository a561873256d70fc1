// Package check is a deterministic differential and metamorphic testing
// harness for the securemem protection models.
//
// A seeded PRNG generates randomized operation sequences — reads, cached
// writes, direct CXL reads/writes, chunk checkpoints, flushes, and
// suspend/resume cycles, skewed to force page migrations, evictions,
// partial-sector writes, and chunk-boundary straddles, with a fraction of
// hostile out-of-range and address-wrapping probes. Each sequence is
// replayed against every protection model plus a plain []byte oracle, and
// after every operation the harness asserts:
//
//   - plaintext equivalence: every model returns (and reads back) exactly
//     the oracle's bytes, and hostile operations are rejected by every
//     model without panicking;
//   - the Salus invariants: zero relocation re-encryptions, monotone
//     non-decreasing home major counters, idempotent Flush, and
//     suspend/resume round-trip fidelity;
//   - stats conservation: pages migrated in minus pages evicted equals
//     pages resident, eviction chunk accounting sums to chunks-per-page,
//     and every operation counter is monotone.
//
// On failure the sequence is shrunk (ddmin-style) to a minimal reproducer
// that can be printed as a runnable Go regression test, so every bug the
// checker finds lands with its own pinned test.
package check

import (
	"fmt"

	"github.com/salus-sim/salus/internal/securemem"
)

// OpKind identifies one generated operation.
type OpKind uint8

// The operation vocabulary. Through-ops and checkpoints degrade gracefully
// on models that lack the direct CXL path (see Target).
const (
	OpRead OpKind = iota
	OpWrite
	OpReadThrough
	OpWriteThrough
	OpCheckpoint
	OpFlush
	OpSuspendResume
	// OpEpochCheckpoint commits one incremental checkpoint epoch to the
	// crash journal. It is generated only for crash-mode sequences (see
	// crash.go); the plain replay treats it as a no-op because without a
	// journal it has no observable plaintext effect.
	OpEpochCheckpoint
	// OpDrainWritebacks drains the dirty-writeback queue parked by a link
	// outage. It is generated only for link-mode sequences (see
	// linkchaos.go); the plain replay treats it as a no-op because without
	// an attached link nothing ever parks.
	OpDrainWritebacks
)

// opKind describes one op kind: its name, its identifier in emitted
// reproducers, and how many of Addr, Len and Tag (in that order) define
// an op of the kind.
type opKind struct {
	name, ident string
	fields      int
}

var opKinds = [...]opKind{
	OpRead:            {"read", "OpRead", 2},
	OpWrite:           {"write", "OpWrite", 3},
	OpReadThrough:     {"read-through", "OpReadThrough", 2},
	OpWriteThrough:    {"write-through", "OpWriteThrough", 3},
	OpCheckpoint:      {"checkpoint", "OpCheckpoint", 1},
	OpFlush:           {"flush", "OpFlush", 0},
	OpSuspendResume:   {"suspend-resume", "OpSuspendResume", 0},
	OpEpochCheckpoint: {"epoch-checkpoint", "OpEpochCheckpoint", 0},
	OpDrainWritebacks: {"drain-writebacks", "OpDrainWritebacks", 0},
}

func (k OpKind) info() opKind {
	if int(k) < len(opKinds) {
		return opKinds[k]
	}
	return opKind{fmt.Sprintf("op(%d)", int(k)), fmt.Sprintf("OpKind(%d)", int(k)), 2}
}

// String returns the op name.
func (k OpKind) String() string { return k.info().name }

// Op is one self-contained operation: replaying it needs no state beyond
// the fields here, which is what makes sequences shrinkable.
type Op struct {
	Kind OpKind
	Addr uint64
	Len  int  // payload length for read/write-class ops
	Tag  byte // write payload = FillData(Tag, Len)
}

// render formats the op as kind followed by each field that defines it,
// through the matching format of Addr, Len and Tag.
func (o Op) render(kind string, formats [3]string) string {
	for i, v := range []any{o.Addr, o.Len, o.Tag}[:o.Kind.info().fields] {
		kind += fmt.Sprintf(formats[i], v)
	}
	return kind
}

// String renders the op compactly.
func (o Op) String() string {
	return o.render(o.Kind.String(), [3]string{" addr=%#x", " len=%d", " tag=%d"})
}

// Sequence is a replayable operation list tagged with the seed that
// generated it.
type Sequence struct {
	Seed int64
	Ops  []Op
}

// Config sizes a differential checking campaign.
type Config struct {
	Campaign
	Space
	Ops int // operations per generated sequence

	// Models replayed differentially; the []byte oracle is always present.
	Models []securemem.Model

	// NewTargets overrides target construction. Tests use it to aim the
	// checker at deliberately broken implementations and prove it catches
	// them; nil builds one securemem target per entry in Models.
	NewTargets func(Config) ([]Target, error)

	// Fault, when non-nil, enables chaos mode: every securemem target is
	// armed with a deterministic fault injector and the replay asserts
	// the recovery contract (see FaultPlan).
	Fault *FaultPlan

	// faultSeed is the seed handed to Fault.New; ReplaySequence sets it
	// from the sequence being replayed so reproducers are deterministic.
	faultSeed int64
}

// DefaultConfig returns the smoke-budget configuration used by
// `make check-smoke`: 25 seeds × 200 ops against all three models, with a
// 12-page home space over 3 device frames so every seed sees constant
// migration and eviction pressure.
func DefaultConfig() Config {
	return Config{
		Campaign: Campaign{Seeds: 25, FirstSeed: 1},
		Space:    smallSpace(12, 3),
		Ops:      200,
		Models:   []securemem.Model{securemem.ModelNone, securemem.ModelConventional, securemem.ModelSalus},
	}
}

func (c Config) targets() ([]Target, error) {
	if c.NewTargets != nil {
		return c.NewTargets(c)
	}
	ts := make([]Target, 0, len(c.Models))
	for _, m := range c.Models {
		t, err := NewSystemTarget(c, m)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// replayer is the differential mode's shrink and reproducer surface.
func (c Config) replayer() replayer {
	pre := fmt.Sprintf("\tcfg := check.DefaultConfig()\n\tcfg.TotalPages = %d\n\tcfg.DevicePages = %d\n", c.TotalPages, c.DevicePages)
	if c.Fault != nil {
		// Re-arm the standard chaos plan. A custom FaultPlan cannot be
		// rendered as source; the emitted reproducer approximates it with
		// ChaosConfig at the same recoverability level.
		pre += fmt.Sprintf("\tcfg = check.ChaosConfig(cfg, %v)\n", c.Fault.Unrecoverable)
	}
	return replayer{name: "Check", preamble: pre, call: "check.ReplaySequence(cfg, seq)",
		replay: func(seq Sequence) *Failure { return ReplaySequence(c, seq) }}
}

// Failure describes one invariant violation, pinned to the op that
// triggered it.
type Failure struct {
	Seq    Sequence // the sequence that reproduces the failure
	OpIdx  int      // failing op index; len(Seq.Ops) = final sweep, -1 = setup
	Target string   // name of the diverging target
	Reason string
	// Loc, when non-empty, overrides the op-index location. Crash-mode
	// failures use it to name the crash point ("cut 17/80 (torn)") that
	// the whole sequence, not one op, led to.
	Loc string
	// Repro is the shrunk sequence rendered as a runnable Go regression
	// test; campaign runs fill it in.
	Repro string
}

// String renders the failure with its location inside the sequence.
func (f *Failure) String() string {
	loc := "setup"
	switch {
	case f.Loc != "":
		loc = f.Loc
	case f.OpIdx >= 0 && f.OpIdx < len(f.Seq.Ops):
		loc = fmt.Sprintf("op %d (%v)", f.OpIdx, f.Seq.Ops[f.OpIdx])
	case f.OpIdx == len(f.Seq.Ops):
		loc = "final sweep"
	}
	return fmt.Sprintf("seed %d, %s, target %s: %s", f.Seq.Seed, loc, f.Target, f.Reason)
}

// Result summarises a Run.
type Result struct {
	SeedsRun int
	OpsRun   int
	Failure  *Failure // nil when every seed replayed clean
	// Faults sums the fault accounting (OpStats.AddFaults) of every
	// target over every clean sequence; zero outside chaos mode.
	Faults securemem.OpStats
}

// GenerateSequence produces the deterministic differential sequence for
// one seed: the plain op mix, a slice of which are hostile out-of-range
// or address-wrapping probes that every model must reject identically.
func GenerateSequence(cfg Config, seed int64) Sequence {
	return generate(seed, cfg.Ops, cfg.Space, plainMix)
}

// Run generates and replays cfg.Seeds sequences. On the first failure it
// shrinks the sequence to a minimal reproducer and stops.
func Run(cfg Config) Result {
	var res Result
	cfg.each(func(seed int64) (string, bool) {
		seq := GenerateSequence(cfg, seed)
		res.SeedsRun++
		res.OpsRun += len(seq.Ops)
		if f := replay(cfg, seq, &res.Faults); f != nil {
			res.Failure = cfg.replayer().minimize(f)
			return res.Failure.String(), false
		}
		return fmt.Sprintf("%d ops clean", len(seq.Ops)), true
	})
	return res
}

// ReplaySequence replays one sequence against freshly built targets and a
// zeroed oracle, returning the first invariant violation or nil.
func ReplaySequence(cfg Config, seq Sequence) *Failure {
	return replay(cfg, seq, &securemem.OpStats{})
}

// replay is ReplaySequence, adding each target's fault accounting to
// faults when the sequence replays clean.
func replay(cfg Config, seq Sequence, faults *securemem.OpStats) *Failure {
	cfg.faultSeed = seq.Seed
	targets, err := cfg.targets()
	if err != nil {
		return &Failure{Seq: seq, OpIdx: -1, Reason: fmt.Sprintf("target setup: %v", err)}
	}
	st := replayState{cfg: cfg, targets: targets, size: cfg.size(), unrec: cfg.Fault != nil && cfg.Fault.Unrecoverable}
	for range targets {
		st.oracles = append(st.oracles, newOracle(st.size))
	}
	for i, op := range seq.Ops {
		if f := st.apply(op); f != nil {
			f.Seq, f.OpIdx = seq, i
			return f
		}
	}
	if f := st.finalSweep(); f != nil {
		f.Seq, f.OpIdx = seq, len(seq.Ops)
		return f
	}
	for _, t := range targets {
		if r, ok := t.(faultStateReporter); ok && cfg.Fault != nil {
			faults.AddFaults(r.FaultStats())
		}
	}
	return nil
}

type replayState struct {
	cfg     Config
	targets []Target
	size    uint64
	unrec   bool // an unrecoverable fault plan is armed
	// oracles holds one oracle per target. Outside unrecoverable chaos
	// mode nothing is ever tainted; under it, bytes a fault-failed write
	// may have left half-applied are excluded from comparison until a
	// later successful write covers them.
	oracles []*oracle
}

// outOfRange reports whether op addresses bytes outside a size-byte
// space. Ops without an address range never are.
func outOfRange(op Op, size uint64) bool {
	switch op.Kind {
	case OpFlush, OpSuspendResume, OpEpochCheckpoint, OpDrainWritebacks:
		return false
	case OpCheckpoint:
		return op.Addr >= size
	}
	return op.Addr > size || uint64(op.Len) > size-op.Addr
}

// apply runs one op on every target, then checks equivalence against the
// oracle and each target's internal invariants.
func (st *replayState) apply(op Op) *Failure {
	reject := outOfRange(op, st.size)
	write := op.Kind == OpWrite || op.Kind == OpWriteThrough
	var data []byte
	if write {
		data = FillData(op.Tag, op.Len)
	}

	for ti, t := range st.targets {
		var buf []byte
		var err error
		switch op.Kind {
		case OpRead:
			buf = make([]byte, op.Len)
			err = safely(func() error { return t.Read(op.Addr, buf) })
		case OpReadThrough:
			buf = make([]byte, op.Len)
			err = safely(func() error { return t.ReadThrough(op.Addr, buf) })
		case OpWrite:
			err = safely(func() error { return t.Write(op.Addr, data) })
		case OpWriteThrough:
			err = safely(func() error { return t.WriteThrough(op.Addr, data) })
		case OpCheckpoint:
			err = safely(func() error { return t.Checkpoint(op.Addr) })
		case OpFlush:
			err = safely(t.Flush)
		case OpSuspendResume:
			err = safely(t.SuspendResume)
		case OpEpochCheckpoint, OpDrainWritebacks:
			// Journal-backed epoch checkpoints and writeback drains only
			// exist in crash/link mode; the plain replay passes them through.
		default:
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("generator produced unknown op kind %d", op.Kind)}
		}

		if pe, ok := err.(*panicError); ok {
			return &Failure{Target: t.Name(), Reason: pe.Error()}
		}
		if reject && err == nil {
			return &Failure{Target: t.Name(), Reason: "accepted an out-of-range operation"}
		}
		if reject {
			continue
		}
		o := st.oracles[ti]
		if err != nil {
			if !st.unrec {
				return &Failure{Target: t.Name(), Reason: fmt.Sprintf("rejected an in-range operation: %v", err)}
			}
			if !faultErrs.has(err) {
				return &Failure{Target: t.Name(), Reason: fmt.Sprintf("in-range operation failed with a non-fault error: %v", err)}
			}
			// A typed fault surfaced — the unrecoverable-plan contract. A
			// failed write may have landed partially; taint its range so
			// later compares skip those bytes until a write succeeds.
			if write {
				o.failed(op.Addr, op.Len)
			}
			continue
		}
		if write {
			o.write(op.Addr, data)
		}
		if op.Kind == OpRead || op.Kind == OpReadThrough {
			if f := st.poisoned(t, op.Addr, op.Len, "read"); f != nil {
				return f
			}
			if i := o.diff(op.Addr, buf); i >= 0 {
				return &Failure{Target: t.Name(), Reason: diffReason("read", op.Addr, i, buf, o.want[op.Addr:])}
			}
		}
	}

	// Read in-range writes back from every target so write-class
	// divergence surfaces on the very op that caused it, not on some
	// later read. Targets whose write failed under an unrecoverable fault
	// plan carry taint instead of the new bytes.
	if !reject && write {
		if f := st.verifyRange(op.Addr, op.Len); f != nil {
			return f
		}
	}

	for _, t := range st.targets {
		if err := safely(t.CheckInvariants); err != nil {
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("invariant: %v", err)}
		}
	}
	return nil
}

// poisoned fails a successful read that served bytes from a range the
// target itself reports quarantined (unrecoverable chaos mode only).
func (st *replayState) poisoned(t Target, addr uint64, n int, what string) *Failure {
	if !st.unrec || n == 0 {
		return nil
	}
	if r, ok := t.(faultStateReporter); ok && r.PoisonedRange(addr, n) {
		return &Failure{Target: t.Name(), Reason: fmt.Sprintf("%s at %#x served bytes from a quarantined range", what, addr)}
	}
	return nil
}

// verifyRange reads [addr, addr+n) back from every target and compares it
// with the oracle, using each target's least-intrusive read path.
func (st *replayState) verifyRange(addr uint64, n int) *Failure {
	for ti, t := range st.targets {
		buf := make([]byte, n)
		if err := safely(func() error { return t.VerifyRead(addr, buf) }); err != nil {
			if st.unrec && faultErrs.has(err) {
				// The range is unreadable because the declared fault plan
				// poisoned it (or exhausted the retry budget). Surfacing
				// a typed error is the contract; nothing to compare.
				continue
			}
			return &Failure{Target: t.Name(), Reason: fmt.Sprintf("verify read at %#x: %v", addr, err)}
		}
		if f := st.poisoned(t, addr, n, "verify read"); f != nil {
			return f
		}
		if i := st.oracles[ti].diff(addr, buf); i >= 0 {
			return &Failure{Target: t.Name(), Reason: diffReason("verify read", addr, i, buf, st.oracles[ti].want[addr:])}
		}
	}
	return nil
}

// finalSweep compares every byte of every target against the oracle.
func (st *replayState) finalSweep() *Failure {
	stride := st.cfg.Geometry.ChunkSize
	for addr := uint64(0); addr < st.size; addr += uint64(stride) {
		if f := st.verifyRange(addr, stride); f != nil {
			return f
		}
	}
	return nil
}
