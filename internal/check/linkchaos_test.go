package check

import (
	"reflect"
	"strings"
	"testing"
)

// TestRunLinkSmoke runs a scaled-down default campaign and asserts both
// that it passes and that it actually exercised the degraded-mode
// machinery: outages refused transfers, writebacks parked and all
// drained, and every seed's rollback probe detected its staged attack.
func TestRunLinkSmoke(t *testing.T) {
	plan := DefaultLinkPlan()
	plan.Seeds = 4
	plan.Ops = 80
	res := RunLink(plan)
	if res.Failure != nil {
		t.Fatalf("link campaign failed: %v", res.Failure)
	}
	if res.SeedsRun != 4 || res.PlansRun != 4*len(plan.Plans) {
		t.Fatalf("campaign coverage: %d seeds, %d plan replays", res.SeedsRun, res.PlansRun)
	}
	if res.Refusals == 0 && res.FastFails == 0 {
		t.Fatal("no transfer was ever refused — the flap plans never fired")
	}
	if res.Flaps == 0 {
		t.Fatal("link never changed state")
	}
	if res.Queued == 0 {
		t.Fatal("no writeback ever parked — outage never hit a dirty eviction")
	}
	if res.Queued != res.Drained {
		t.Fatalf("writeback accounting open across campaign: %d queued, %d drained", res.Queued, res.Drained)
	}
	if res.RollbackProbes != plan.Seeds {
		t.Fatalf("rollback probes: %d detected, want %d", res.RollbackProbes, plan.Seeds)
	}
	if res.DepthSamples == 0 || res.AgeCount != res.Drained {
		t.Fatalf("queue telemetry: %d depth samples, %d ages for %d drains",
			res.DepthSamples, res.AgeCount, res.Drained)
	}
}

// TestLinkReplayDeterministic replays the same sequence under the same
// rate plan twice and demands identical campaign counters: the flap
// schedule must be a pure function of (seed, spec).
func TestLinkReplayDeterministic(t *testing.T) {
	plan := DefaultLinkPlan()
	np := plan.Plans[len(plan.Plans)-1] // the rate plan
	if !strings.HasPrefix(np.Spec, "rate:") {
		t.Fatalf("expected the last default plan to be rate-driven, got %q", np.Spec)
	}
	seq := GenerateLinkSequence(plan, 7)
	var a, b LinkResult
	if f := linkReplay(plan, np, seq, &a); f != nil {
		t.Fatalf("first replay: %v", f)
	}
	if f := linkReplay(plan, np, seq, &b); f != nil {
		t.Fatalf("second replay: %v", f)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay not deterministic:\n  first  %+v\n  second %+v", a, b)
	}
}

// TestGenerateLinkSequenceInRange checks the generator's contract: link
// sequences carry no hostile probes, every addressed op fits the space.
func TestGenerateLinkSequenceInRange(t *testing.T) {
	plan := DefaultLinkPlan()
	size := plan.size()
	for seed := int64(1); seed <= 20; seed++ {
		seq := GenerateLinkSequence(plan, seed)
		if len(seq.Ops) != plan.Ops {
			t.Fatalf("seed %d: %d ops, want %d", seed, len(seq.Ops), plan.Ops)
		}
		drains := 0
		for i, op := range seq.Ops {
			switch op.Kind {
			case OpFlush:
			case OpDrainWritebacks:
				drains++
			default:
				if op.Addr >= size || uint64(op.Len) > size-op.Addr {
					t.Fatalf("seed %d op %d out of range: %v", seed, i, op)
				}
			}
		}
		if drains == 0 {
			t.Fatalf("seed %d generated no drain ops", seed)
		}
	}
	if !reflect.DeepEqual(GenerateLinkSequence(plan, 3), GenerateLinkSequence(plan, 3)) {
		t.Fatal("generator not deterministic")
	}
}

// TestLinkRollbackProbeDetects pins the security core directly: the
// per-seed probe must come back nil, meaning the staged outage rollback
// was refused with ErrFreshness on drain.
func TestLinkRollbackProbeDetects(t *testing.T) {
	plan := DefaultLinkPlan()
	for seed := int64(1); seed <= 8; seed++ {
		if f := linkRollbackProbe(plan, seed); f != nil {
			t.Fatalf("seed %d: %v", seed, f)
		}
	}
}

// TestLinkGoTestRendering checks the emitted reproducer is a plausible
// test: plan sizing, the named link plan spec, and every op rendered.
func TestLinkGoTestRendering(t *testing.T) {
	plan := DefaultLinkPlan()
	np := plan.Plans[0]
	f := &Failure{
		Seq: Sequence{Seed: 9, Ops: []Op{
			{Kind: OpWrite, Addr: 0x40, Len: 8, Tag: 3},
			{Kind: OpFlush},
			{Kind: OpDrainWritebacks},
		}},
		OpIdx:  2,
		Target: "salus-link/" + np.Name,
		Reason: "synthetic",
	}
	src := plan.replayer(np).goTest(f, "seed9")
	for _, want := range []string{
		"func TestLinkRegression_seed9(t *testing.T)",
		"check.DefaultLinkPlan()",
		`check.NamedLinkPlan{Name: "flap-short"`,
		np.Spec,
		"check.OpDrainWritebacks",
		"check.ReplayLinkSequence(plan, np, seq)",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("emitted test missing %q:\n%s", want, src)
		}
	}
}
