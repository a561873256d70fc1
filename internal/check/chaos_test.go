package check

import (
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/securemem"
)

// TestChaosRecoverableByteIdentical is the headline chaos property at the
// full CI smoke budget: under a recoverable-only fault plan (transient
// link faults that always fit the retry budget), every model reproduces
// byte-identical oracle plaintext end to end — faults fire, retries
// happen, and nothing observable changes.
func TestChaosRecoverableByteIdentical(t *testing.T) {
	cfg := ChaosConfig(DefaultConfig(), false)
	res := Run(cfg)
	if res.Failure != nil {
		t.Fatalf("recoverable fault plan broke equivalence:\n%s", res.Failure)
	}
	if res.Faults.TransientFaults == 0 || res.Faults.Retries == 0 {
		t.Fatalf("chaos campaign injected no faults (transient=%d retries=%d) — the plan is not wired in",
			res.Faults.TransientFaults, res.Faults.Retries)
	}
	if res.Faults.PoisonFaults != 0 || res.Faults.StuckBitFaults != 0 {
		t.Fatalf("recoverable plan emitted uncorrectable faults: %+v", res.Faults)
	}
}

// TestChaosUnrecoverableNoSilentDivergence drives the full smoke budget
// under a plan that also injects uncorrectable media errors. Every fault
// must surface as a typed error or quarantine — the replay flags any
// silent plaintext divergence, untyped error, or read served from a
// quarantined range as a Failure.
func TestChaosUnrecoverableNoSilentDivergence(t *testing.T) {
	cfg := ChaosConfig(DefaultConfig(), true)
	res := Run(cfg)
	if res.Failure != nil {
		t.Fatalf("unrecoverable fault plan produced a silent divergence:\n%s", res.Failure)
	}
	if res.Faults.PoisonFaults+res.Faults.StuckBitFaults == 0 {
		t.Fatal("unrecoverable campaign never injected an uncorrectable fault — rates too low for the budget")
	}
	if res.Faults.ChunksPoisoned == 0 && res.Faults.FramesQuarantined == 0 {
		t.Fatalf("uncorrectable faults fired but nothing was quarantined: %+v", res.Faults)
	}
}

// TestChaosMisdeclaredPlanCaught proves the declaration matters: a plan
// that injects poison while claiming to be recoverable is itself flagged —
// the typed fault error leaks where the contract allows none.
func TestChaosMisdeclaredPlanCaught(t *testing.T) {
	cfg := quickConfig()
	cfg.Seeds = 10
	cfg.Fault = &FaultPlan{
		New: func(seed int64) fault.Injector {
			return fault.NewRatePlan(seed, fault.Rates{Transient: 0.01, Poison: 0.01}, 2)
		},
		Policy:        securemem.RetryPolicy{MaxRetries: 4, BaseBackoff: 8, MaxBackoff: 64},
		Unrecoverable: false, // lie: the plan injects poison
	}
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatal("poison under a recoverable-declared plan was not flagged")
	}
	if !strings.Contains(res.Failure.Reason, "rejected an in-range operation") &&
		!strings.Contains(res.Failure.Reason, "verify read") {
		t.Errorf("failure should be the leaked fault error, got: %s", res.Failure)
	}
}

// silentCorruptTarget swallows one bit of every Nth write — a model bug
// chaos mode must still catch: taint tracking only excuses bytes whose
// write FAILED, never bytes a successful write quietly mangled.
type silentCorruptTarget struct {
	plainTarget
	writes int
}

func (c *silentCorruptTarget) Write(addr uint64, data []byte) error {
	if err := c.plainTarget.Write(addr, data); err != nil {
		return err
	}
	c.writes++
	if c.writes%5 == 0 && len(data) > 0 {
		c.data[addr] ^= 0x40 // silent corruption, no error
	}
	return nil
}

func (c *silentCorruptTarget) WriteThrough(addr uint64, data []byte) error {
	return c.Write(addr, data)
}

func TestChaosStillCatchesSilentCorruption(t *testing.T) {
	cfg := ChaosConfig(quickConfig(), true)
	cfg.NewTargets = func(c Config) ([]Target, error) {
		return []Target{&silentCorruptTarget{plainTarget: plainTarget{data: make([]byte, c.size())}}}, nil
	}
	res := Run(cfg)
	if res.Failure == nil {
		t.Fatal("chaos mode masked a silently corrupting target")
	}
	if !strings.Contains(res.Failure.Reason, "diverged from oracle") {
		t.Errorf("failure should be a plaintext divergence, got: %s", res.Failure)
	}
}

// TestChaosScriptedDeterministicReplay pins determinism: replaying the
// same sequence under the same scripted plan twice yields identical
// outcomes on every model and identical fault accounting per model,
// which is what makes shrunk chaos reproducers trustworthy.
func TestChaosScriptedDeterministicReplay(t *testing.T) {
	cfg := quickConfig()
	cfg.Fault = &FaultPlan{
		New: func(seed int64) fault.Injector {
			return fault.NewScriptPlan([]fault.Event{
				{Tier: fault.TierDevice, N: 3, Kind: fault.Transient, Burst: 2},
				{Tier: fault.TierHome, N: 7, Kind: fault.Transient, Burst: 1},
			})
		},
		Policy: securemem.RetryPolicy{MaxRetries: 4, BaseBackoff: 8, MaxBackoff: 64},
	}
	seq := GenerateSequence(cfg, 42)
	var runs [2]map[securemem.Model]securemem.OpStats
	for i := range runs {
		if f := ReplaySequence(cfg, seq); f != nil {
			t.Fatalf("replay %d failed: %v", i, f)
		}
		runs[i] = map[securemem.Model]securemem.OpStats{}
		for _, m := range cfg.Models {
			one := cfg
			one.Models = []securemem.Model{m}
			var st securemem.OpStats
			if f := replay(one, seq, &st); f != nil {
				t.Fatalf("replay %d of %v failed: %v", i, m, f)
			}
			runs[i][m] = st
		}
	}
	for _, m := range cfg.Models {
		if runs[0][m] != runs[1][m] {
			t.Fatalf("%v replay is not deterministic:\n  first:  %+v\n  second: %+v", m, runs[0][m], runs[1][m])
		}
	}
	if runs[0][securemem.ModelSalus].TransientFaults == 0 {
		t.Fatal("scripted events never fired")
	}
}

// TestChaosGoTestEmitsArming: reproducers emitted from a chaos failure
// re-arm the standard plan so the committed regression test replays the
// same fault schedule.
func TestChaosGoTestEmitsArming(t *testing.T) {
	cfg := ChaosConfig(DefaultConfig(), true)
	f := &Failure{Seq: Sequence{Seed: 7, Ops: []Op{{Kind: OpFlush}}}}
	src := cfg.replayer().goTest(f, "chaos")
	if !strings.Contains(src, "cfg = check.ChaosConfig(cfg, true)") {
		t.Errorf("GoTest output missing chaos arming line:\n%s", src)
	}
}
