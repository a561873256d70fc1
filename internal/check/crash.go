package check

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/securemem"
)

// Crash mode: the harness runs a generated Salus workload once against a
// crash.Tape-backed checkpoint journal (the golden run), recording for
// every committed epoch the trusted root the TCB would hold, the tape
// position at which its commit became durable, the system's durable-state
// digest, and a copy of the plaintext oracle. It then enumerates every
// crash point of the tape — power lost after each write or sync event —
// under every damage mode, recovers from the damaged medium with the root
// the TCB would have held at that instant, and asserts the recovery
// contract:
//
//   - at an honest cut (only unsynced writes damaged), Recover must
//     reconstruct the last committed epoch byte-identically — digest
//     equality against the golden run's record of that epoch;
//   - at a corrupting cut (a bit flipped in data a Sync had promised
//     durable), Recover must either still reconstruct the epoch exactly
//     (the flip landed past the trusted commit, where replay never looks)
//     or fail with crash.ErrTornCheckpoint / crash.ErrRollback — never an
//     untyped error, never silently divergent state;
//   - before any epoch committed, the empty TCB root admits no journal;
//   - replaying the previous epoch's journal against the newest root — a
//     physical rollback attack on the stable store — fails with
//     crash.ErrRollback;
//   - recovering from the undamaged journal yields a system whose every
//     byte reads back equal to the oracle as of the last commit.
//
// A violation shrinks to a minimal sequence and renders as a regression
// test, like any other checker failure (see harness.go).

// crashTarget names the implicit target of crash-mode failures; crash mode
// is not differential across models — the journal is a ModelSalus feature.
const crashTarget = "salus-crash"

// CrashPlan sizes a crash-recovery campaign.
type CrashPlan struct {
	Campaign
	Space
	Ops int // operations per generated sequence (checkpoints included)

	// CheckpointEvery replaces every CheckpointEvery-th generated op with
	// an epoch checkpoint; a final checkpoint is always appended. <= 0
	// means only the baseline and final checkpoints.
	CheckpointEvery int
}

// DefaultCrashPlan returns the smoke-budget crash campaign used by
// `make crash-smoke`: 8 seeds × 72 ops with an epoch checkpoint every 12
// ops, over an 8-page home space and 2 device frames. Each seed enumerates
// every tape event boundary × every damage mode — typically several
// hundred recoveries per seed.
func DefaultCrashPlan() CrashPlan {
	return CrashPlan{
		Campaign:        Campaign{Seeds: 8, FirstSeed: 1},
		Space:           smallSpace(8, 2),
		Ops:             72,
		CheckpointEvery: 12,
	}
}

// replayer is the crash mode's shrink and reproducer surface: the
// reduction predicate is the full crash replay (golden run plus every
// enumerated cut), so the minimal sequence still reaches the failing
// crash point.
func (p CrashPlan) replayer() replayer {
	return replayer{name: "Crash", call: "check.ReplayCrashSequence(plan, seq)",
		preamble: fmt.Sprintf("\tplan := check.DefaultCrashPlan()\n\tplan.TotalPages = %d\n\tplan.DevicePages = %d\n", p.TotalPages, p.DevicePages),
		replay:   func(seq Sequence) *Failure { return ReplayCrashSequence(p, seq) }}
}

// CrashResult summarises a RunCrash campaign.
type CrashResult struct {
	SeedsRun   int
	OpsRun     int
	Epochs     int // checkpoint epochs committed across all golden runs
	Cuts       int // (crash point × damage mode) recoveries attempted
	Recoveries int // recoveries that reconstructed the epoch byte-identically
	Detected   int // corrupting cuts that surfaced a typed detection error
	Failure    *Failure
}

// RunCrash generates and crash-replays plan.Seeds sequences. On the first
// violation it shrinks the sequence to a minimal reproducer and stops.
func RunCrash(plan CrashPlan) CrashResult {
	var res CrashResult
	plan.each(func(seed int64) (string, bool) {
		seq := GenerateCrashSequence(plan, seed)
		res.SeedsRun++
		res.OpsRun += len(seq.Ops)
		before := res
		if f := crashReplay(plan, seq, &res); f != nil {
			res.Failure = plan.replayer().minimize(f)
			return res.Failure.String(), false
		}
		return fmt.Sprintf("%d ops, %d epochs, %d cuts (%d recovered, %d detected)",
			len(seq.Ops), res.Epochs-before.Epochs, res.Cuts-before.Cuts,
			res.Recoveries-before.Recoveries, res.Detected-before.Detected), true
	})
	return res
}

// ReplayCrashSequence crash-replays one sequence: golden run, exhaustive
// cut enumeration, rollback probe, and final plaintext sweep. It returns
// the first contract violation or nil.
func ReplayCrashSequence(plan CrashPlan, seq Sequence) *Failure {
	return crashReplay(plan, seq, &CrashResult{})
}

// GenerateCrashSequence produces the deterministic crash-mode workload for
// one seed: the crash op mix (in-range, Salus-only, no hostile probes —
// bounds behaviour is the plain checker's job), with an epoch checkpoint
// every plan.CheckpointEvery ops and one appended at the end.
func GenerateCrashSequence(plan CrashPlan, seed int64) Sequence {
	mix := crashMix
	mix.epochEvery = plan.CheckpointEvery
	seq := generate(seed, plan.Ops, plan.Space, mix)
	if n := len(seq.Ops); n == 0 || seq.Ops[n-1].Kind != OpEpochCheckpoint {
		seq.Ops = append(seq.Ops, Op{Kind: OpEpochCheckpoint})
	}
	return seq
}

// crashMark records everything the harness knows about one committed
// epoch: the root the TCB holds from the commit onwards, the tape position
// at which the commit's final sync landed, and the golden run's state.
type crashMark struct {
	root   securemem.TrustedRoot
	points int // tape.Points() when Checkpoint returned
	digest [32]byte
	oracle *oracle
}

// crashReplay is the shared implementation behind RunCrash and
// ReplayCrashSequence, accumulating campaign counters into res.
func crashReplay(plan CrashPlan, seq Sequence, res *CrashResult) *Failure {
	cfg := plan.memConfig()
	size := plan.size()
	fail := func(idx int, loc, format string, a ...any) *Failure {
		return &Failure{Seq: seq, OpIdx: idx, Loc: loc, Target: crashTarget, Reason: fmt.Sprintf(format, a...)}
	}

	// --- Golden run: the workload, journaled onto a tape. ---
	sys, err := securemem.New(cfg)
	if err != nil {
		return fail(-1, "", "target setup: %v", err)
	}
	tape := &crash.Tape{}
	j := crash.NewJournal(tape)
	o := newOracle(size)
	var marks []crashMark

	checkpoint := func() error {
		root, err := sys.Checkpoint(j)
		if err != nil {
			return err
		}
		marks = append(marks, crashMark{root: root, points: tape.Points(), digest: sys.StateDigestFromScratch(), oracle: o.clone()})
		res.Epochs++
		return nil
	}

	// Baseline epoch: commit before any ops, so every crash point from the
	// first commit onwards pairs with a recoverable epoch. A fresh system
	// has no dirty pages — this journals just the commit record.
	if err := checkpoint(); err != nil {
		return fail(-1, "", "baseline checkpoint: %v", err)
	}

	if i, why := salusReplay(sys, seq, o, map[OpKind]func() error{OpEpochCheckpoint: checkpoint}, nil, nil); why != "" {
		return fail(i, "", "golden run: %s", why)
	}

	// --- Exhaustive cut enumeration. ---
	for e := 0; e <= tape.Points(); e++ {
		// The TCB root at crash point e belongs to the last epoch whose
		// commit protocol had fully finished by then.
		idx := -1
		for mi := range marks {
			if marks[mi].points <= e {
				idx = mi
			}
		}
		for mode := crash.DamageMode(0); mode < crash.NumDamageModes; mode++ {
			res.Cuts++
			cut := fmt.Sprintf("cut %d/%d (%v)", e, tape.Points(), mode)
			durable := tape.Cut(e, mode, seq.Seed)
			if idx < 0 {
				// No epoch has committed: the TCB holds no root yet, and an
				// empty root must never admit a journal — recovery before
				// the first commit is fresh provisioning, not Recover.
				if _, err := securemem.Recover(cfg, durable, securemem.TrustedRoot{}); err == nil {
					return fail(len(seq.Ops), cut, "empty trusted root admitted a journal")
				}
				continue
			}
			m := marks[idx]
			rec, err := securemem.Recover(cfg, durable, m.root)
			switch {
			case err == nil:
				if rec.StateDigestFromScratch() != m.digest {
					return fail(len(seq.Ops), cut, "recovered state diverges from committed epoch %d", m.root.Epoch)
				}
				res.Recoveries++
			case mode.Honest():
				return fail(len(seq.Ops), cut, "honest crash failed to recover epoch %d: %v", m.root.Epoch, err)
			case errors.Is(err, crash.ErrTornCheckpoint) || errors.Is(err, crash.ErrRollback):
				res.Detected++
			default:
				return fail(len(seq.Ops), cut, "corruption surfaced as an untyped error: %v", err)
			}
		}
	}

	// --- Rollback probe: replay the previous epoch's journal against the
	// newest root, as a stable-store rollback attacker would. ---
	if len(marks) >= 2 {
		prev, last := marks[len(marks)-2], marks[len(marks)-1]
		stale := tape.Cut(prev.points, crash.CutClean, seq.Seed)
		if _, err := securemem.Recover(cfg, stale, last.root); !errors.Is(err, crash.ErrRollback) {
			return fail(len(seq.Ops), "rollback probe",
				"epoch-%d journal replayed against the epoch-%d root: got %v, want crash.ErrRollback",
				prev.root.Epoch, last.root.Epoch, err)
		}
	}

	// --- Final sweep: the undamaged journal recovers to a system whose
	// every byte equals the oracle as of the last commit. ---
	last := marks[len(marks)-1]
	recSys, err := securemem.Recover(cfg, tape.Bytes(), last.root)
	if err != nil {
		return fail(len(seq.Ops), "final sweep", "undamaged journal failed to recover: %v", err)
	}
	if why := last.oracle.sweep(plan.Geometry.ChunkSize, "recovered read", func(off uint64, buf []byte) error {
		return recSys.Read(securemem.HomeAddr(off), buf)
	}); why != "" {
		return fail(len(seq.Ops), "final sweep", "%s", why)
	}
	return nil
}
