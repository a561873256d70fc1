package check

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
)

// Link-chaos mode: the harness replays a generated Salus workload while a
// deterministic link plan flaps the CXL transport — scripted windows,
// rate-driven episodes, and brownout latency — and asserts the
// degraded-mode contract op by op:
//
//   - every in-range operation either succeeds or fails with a typed link
//     error (ErrLinkDown, ErrDegraded, ErrQueueFull) — never an untyped
//     error, never a retry/backoff spin charged to the transient fault
//     budget, never a panic;
//   - every successful read returns the oracle's bytes (modulo ranges a
//     link-failed write may have half-applied, tainted until a later
//     write lands);
//   - after the final recovery — link forced up, writeback queue drained,
//     everything flushed — the home tier is byte-identical to a no-outage
//     golden run of the same successful writes, and the queue accounting
//     closes: every writeback ever queued has drained;
//   - per seed, a rollback of home state staged during an outage window
//     is detected as ErrFreshness when the queue drains — the outage is
//     never an integrity holiday.
//
// A violation shrinks to a minimal sequence and renders as a regression
// test, like any other checker failure (see harness.go).

// NamedLinkPlan pairs a link.ParsePlan spec with a campaign-stable name
// used in failure reports and reproducers.
type NamedLinkPlan struct {
	Name string
	Spec string
}

// LinkPlan sizes a link-chaos campaign. Every seed replays once per entry
// in Plans; rate plans are reseeded per sequence so shrunk reproducers
// replay the same flap schedule.
type LinkPlan struct {
	Campaign
	Space
	Ops int // operations per generated sequence

	// QueueCap bounds the dirty-writeback queue; <= 0 selects
	// securemem.DefaultWritebackQueueCap. The default campaign keeps it
	// tiny so ErrQueueFull backpressure is exercised, not just possible.
	QueueCap int

	// Plans are the link schedules each seed replays under.
	Plans []NamedLinkPlan
}

// DefaultLinkPlan returns the smoke-budget link campaign used by
// `make link-smoke`: 12 seeds × 120 ops over an 8-page home space and 2
// device frames with a 2-deep writeback queue, each seed replayed under a
// short-flap script, a long-outage script, a brownout script, and a
// rate-driven plan. Window ordinals are home-transfer counts: one miss
// fill consumes ChunksPerPage ordinals, so the windows below land inside
// the first few dozen operations of every sequence.
func DefaultLinkPlan() LinkPlan {
	return LinkPlan{
		Campaign: Campaign{Seeds: 12, FirstSeed: 1},
		Space:    smallSpace(8, 2),
		Ops:      120,
		QueueCap: 2,
		Plans: []NamedLinkPlan{
			{Name: "flap-short", Spec: "down@40..70,down@300..340,down@800..860"},
			{Name: "flap-long", Spec: "down@100..500"},
			{Name: "brownout", Spec: "deg@50..600:24,down@700..760"},
			{Name: "rate", Spec: "rate:seed=1,flap=0.02,downlen=24,deg=0.02,deglen=16,lat=12"},
		},
	}
}

// replayer is the link mode's shrink and reproducer surface for one named
// plan: the reduction predicate is the full link replay under that plan,
// so the minimal sequence still reaches the failing outage window.
func (p LinkPlan) replayer(np NamedLinkPlan) replayer {
	return replayer{name: "Link", call: "check.ReplayLinkSequence(plan, np, seq)",
		preamble: fmt.Sprintf("\tplan := check.DefaultLinkPlan()\n\tplan.TotalPages = %d\n\tplan.DevicePages = %d\n"+
			"\tplan.QueueCap = %d\n\tnp := check.NamedLinkPlan{Name: %q, Spec: %q}\n",
			p.TotalPages, p.DevicePages, p.QueueCap, np.Name, np.Spec),
		replay: func(seq Sequence) *Failure { return ReplayLinkSequence(p, np, seq) }}
}

// LinkResult summarises a RunLink campaign.
type LinkResult struct {
	SeedsRun int
	PlansRun int // seed × plan replays completed
	OpsRun   int

	OpsOK      uint64 // in-range ops that succeeded
	OpsRefused uint64 // in-range ops that failed with a typed link error

	Flaps     uint64 // link state transitions observed
	Refusals  uint64 // transfers refused by a down link
	FastFails uint64 // transfers fast-failed by the open breaker
	Queued    uint64 // writebacks parked on the queue
	Drained   uint64 // writebacks drained back to the home tier
	Dropped   uint64 // evictions refused by a full queue
	QueuePeak uint64 // campaign-wide queue high-water mark

	DepthSum     uint64 // queue depth summed over post-op samples
	DepthSamples uint64
	AgeSum       uint64 // ops spent parked, summed over drained writebacks
	AgeCount     uint64

	RollbackProbes int // per-seed outage-rollback probes that detected

	Failure *Failure
}

// RunLink generates plan.Seeds sequences and replays each under every
// named link plan, then runs the per-seed outage-rollback probe. On the
// first violation it shrinks the sequence to a minimal reproducer under
// the same link plan and stops.
func RunLink(plan LinkPlan) LinkResult {
	var res LinkResult
	plan.each(func(seed int64) (string, bool) {
		seq := GenerateLinkSequence(plan, seed)
		res.SeedsRun++
		before := res
		for _, np := range plan.Plans {
			res.OpsRun += len(seq.Ops)
			if f := linkReplay(plan, np, seq, &res); f != nil {
				res.Failure = plan.replayer(np).minimize(f)
				return res.Failure.String(), false
			}
			res.PlansRun++
		}
		if res.Failure = linkRollbackProbe(plan, seed); res.Failure != nil {
			return res.Failure.String(), false
		}
		res.RollbackProbes++
		return fmt.Sprintf("%d plans × %d ops clean (%d refused typed, %d queued, %d drained)",
			len(plan.Plans), len(seq.Ops), res.OpsRefused-before.OpsRefused,
			res.Queued-before.Queued, res.Drained-before.Drained), true
	})
	return res
}

// ReplayLinkSequence replays one sequence under one named link plan,
// returning the first contract violation or nil.
func ReplayLinkSequence(plan LinkPlan, np NamedLinkPlan, seq Sequence) *Failure {
	return linkReplay(plan, np, seq, &LinkResult{})
}

// GenerateLinkSequence produces the deterministic link-mode workload for
// one seed: the link op mix (in-range, Salus-only, no hostile probes —
// bounds behaviour is the plain checker's job).
func GenerateLinkSequence(plan LinkPlan, seed int64) Sequence {
	return generate(seed, plan.Ops, plan.Space, linkMix)
}

// newSeqLink builds the link for one (sequence, plan) replay. Rate plans
// are reseeded with the sequence seed so the flap schedule is a pure
// function of (seed, spec) — which is what makes shrunk reproducers and
// re-replays deterministic.
func newSeqLink(np NamedLinkPlan, seed int64) (*link.Link, error) {
	p, err := link.ParsePlan(np.Spec)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %v", np.Name, err)
	}
	if rp, ok := p.(*link.RatePlan); ok {
		rp.Reseed(seed)
	}
	return link.New(p, link.DefaultConfig()), nil
}

// linkReplay replays one sequence under one link plan, accumulating
// campaign counters into res. The oracle tracks the plaintext a no-outage
// system would hold after the same successful writes; ranges a link-failed
// write may have half-applied are tainted until a later write lands.
func linkReplay(plan LinkPlan, np NamedLinkPlan, seq Sequence, res *LinkResult) *Failure {
	target := "salus-link/" + np.Name
	fail := func(idx int, format string, a ...any) *Failure {
		return &Failure{Seq: seq, OpIdx: idx, Target: target, Reason: fmt.Sprintf(format, a...)}
	}

	sys, err := securemem.New(plan.memConfig())
	if err != nil {
		return fail(-1, "target setup: %v", err)
	}
	lnk, err := newSeqLink(np, seq.Seed)
	if err != nil {
		return fail(-1, "target setup: %v", err)
	}
	sys.AttachLink(lnk, nil, plan.QueueCap)

	size := plan.size()
	o := newOracle(size)

	// enqueueIdx records, FIFO, the op index at which each parked
	// writeback was queued; drains pop it to measure queue age in ops.
	// The queue drains strictly FIFO, so pairing deltas is exact.
	var enqueueIdx []int
	prev := sys.Stats()
	account := func(idx int) {
		cur := sys.Stats()
		for n := prev.WritebacksQueued; n < cur.WritebacksQueued; n++ {
			enqueueIdx = append(enqueueIdx, idx)
		}
		for n := prev.WritebacksDrained; n < cur.WritebacksDrained; n++ {
			res.AgeSum += uint64(idx - enqueueIdx[0])
			res.AgeCount++
			enqueueIdx = enqueueIdx[1:]
		}
		prev = cur
		res.DepthSum += uint64(sys.QueuedWritebacks())
		res.DepthSamples++
	}

	drain := func() error { _, err := sys.DrainWritebacks(); return err }
	if i, why := salusReplay(sys, seq, o, map[OpKind]func() error{OpDrainWritebacks: drain}, linkErrs, func(i int, err error) {
		if err != nil {
			res.OpsRefused++
		} else {
			res.OpsOK++
		}
		account(i)
	}); why != "" {
		return fail(i, "%s", why)
	}

	// --- Recovery: force the link up, drain, flush. From here on every
	// operation must succeed — the outage is over. ---
	lnk.ForceUp()
	if _, err := sys.DrainWritebacks(); err != nil {
		return fail(len(seq.Ops), "post-recovery drain failed: %v", err)
	}
	if err := sys.Flush(); err != nil {
		return fail(len(seq.Ops), "post-recovery flush failed: %v", err)
	}
	account(len(seq.Ops) - 1)
	if n := sys.QueuedWritebacks(); n != 0 {
		return fail(len(seq.Ops), "queue not empty after recovery drain: %d parked", n)
	}

	// Queue accounting closes: every writeback ever parked has drained.
	st := sys.Stats()
	if st.WritebacksQueued != st.WritebacksDrained {
		return fail(len(seq.Ops), "writeback accounting open: %d queued, %d drained",
			st.WritebacksQueued, st.WritebacksDrained)
	}
	// Outage ops fail fast; they never consume the transient retry budget.
	if st.Retries != 0 || st.RetryBackoffCycles != 0 {
		return fail(len(seq.Ops), "link outage consumed the transient retry budget: %d retries, %d backoff cycles",
			st.Retries, st.RetryBackoffCycles)
	}

	// --- Final sweep: byte-identical to the no-outage golden run, modulo
	// ranges tainted by link-failed writes. ---
	if why := o.sweep(plan.Geometry.ChunkSize, "post-drain read", func(off uint64, buf []byte) error {
		return sys.Read(securemem.HomeAddr(off), buf)
	}); why != "" {
		return fail(len(seq.Ops), "%s", why)
	}

	lst := lnk.Stats()
	res.Flaps += lst.Flaps
	res.Refusals += lst.DownRefusals
	res.FastFails += lst.FastFails
	res.Queued += st.WritebacksQueued
	res.Drained += st.WritebacksDrained
	res.Dropped += st.WritebacksDropped
	res.QueuePeak = max(res.QueuePeak, st.WritebackQueuePeak)
	return nil
}

// linkRollbackProbe stages the attack the reconciler exists to catch: a
// dirty page parks during an outage, the attacker rolls the home copy
// back to an older epoch while the link is down, and the drain must
// refuse with ErrFreshness — an outage must never launder a rollback.
func linkRollbackProbe(plan LinkPlan, seed int64) *Failure {
	seq := Sequence{Seed: seed}
	fail := func(format string, a ...any) *Failure {
		return &Failure{Seq: seq, OpIdx: -1, Target: "salus-link/rollback-probe",
			Loc: "rollback probe", Reason: fmt.Sprintf(format, a...)}
	}
	sys, err := securemem.New(plan.memConfig())
	if err != nil {
		return fail("target setup: %v", err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.DefaultConfig())
	sys.AttachLink(lnk, nil, plan.QueueCap)

	cs := plan.Geometry.ChunkSize
	tag := byte(seed)
	write := func(t byte) error { return sys.Write(securemem.HomeAddr(0), FillData(t, cs)) }

	// Epoch A reaches the home tier, and the attacker snapshots it.
	if err := write(tag); err != nil {
		return fail("epoch A write: %v", err)
	}
	if err := sys.Flush(); err != nil {
		return fail("epoch A flush: %v", err)
	}
	snap := sys.SnapshotHomeChunk(securemem.HomeAddr(0))

	// Epoch B advances the home state past the snapshot.
	if err := write(tag + 1); err != nil {
		return fail("epoch B write: %v", err)
	}
	if err := sys.Flush(); err != nil {
		return fail("epoch B flush: %v", err)
	}

	// Epoch C is dirty in the device tier when the link dies and parks.
	if err := write(tag + 2); err != nil {
		return fail("epoch C write: %v", err)
	}
	manual.Set(link.StateDown)
	if err := sys.Flush(); err != nil {
		return fail("outage flush: %v", err)
	}
	if sys.QueuedWritebacks() == 0 {
		return fail("outage flush parked nothing")
	}

	// The rollback, staged while the system cannot look.
	sys.ReplayHomeChunk(snap)

	manual.Set(link.StateUp)
	lnk.ForceUp()
	if _, err := sys.DrainWritebacks(); !errors.Is(err, securemem.ErrFreshness) {
		return fail("drain over rolled-back home state: got %v, want ErrFreshness", err)
	}
	if sys.QueuedWritebacks() == 0 {
		return fail("rollback drain freed the parked writeback anyway")
	}
	return nil
}
