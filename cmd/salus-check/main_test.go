package main

import (
	"bytes"
	"flag"
	"strings"
	"testing"

	"github.com/salus-sim/salus/internal/check"
)

func TestCleanRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-seeds", "2", "-ops", "60", "-pages", "6", "-devpages", "2"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "PASS") {
		t.Errorf("missing PASS summary: %q", out.String())
	}
}

func TestSingleModelRun(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-seeds", "1", "-ops", "40", "-pages", "6", "-devpages", "2", "-model", "salus", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "clean") {
		t.Errorf("-v produced no progress lines: %q", errOut.String())
	}
}

func TestCrashRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-crash", "-seeds", "2", "-ops", "24", "-pages", "4", "-devpages", "2", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stderr: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "crash PASS") {
		t.Errorf("missing crash PASS summary: %q", out.String())
	}
	if !strings.Contains(out.String(), "cuts enumerated") {
		t.Errorf("missing enumeration accounting: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "epochs") {
		t.Errorf("-v produced no per-seed crash progress: %q", errOut.String())
	}
}

func TestLinkRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-link", "-seeds", "2", "-ops", "60", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "link PASS") {
		t.Errorf("missing link PASS summary: %q", out.String())
	}
	if !strings.Contains(out.String(), "availability") || !strings.Contains(out.String(), "writebacks") {
		t.Errorf("missing availability/writeback report: %q", out.String())
	}
	if !strings.Contains(out.String(), "rollback probes detected") {
		t.Errorf("missing rollback probe accounting: %q", out.String())
	}
	if !strings.Contains(errOut.String(), "clean") {
		t.Errorf("-v produced no per-seed link progress: %q", errOut.String())
	}
}

func TestLinkCustomPlanAndQueueCap(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-link", "-seeds", "1", "-ops", "60",
		"-linkplan", "down@30..80", "-queuecap", "4"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "1 plans") {
		t.Errorf("custom plan did not replace the default set: %q", out.String())
	}
}

func TestServeRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-serve", "-seeds", "2", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "serve PASS") {
		t.Errorf("missing serve PASS summary: %q", out.String())
	}
	for _, want := range []string{"42 streams", "interactive", "p99", "p999"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("serve report missing %q: %q", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "avail") {
		t.Errorf("-v produced no per-seed serve progress: %q", errOut.String())
	}
}

func TestTenantRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-tenant", "-seeds", "2", "-ops", "40", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "tenant PASS") {
		t.Errorf("missing tenant PASS summary: %q", out.String())
	}
	for _, want := range []string{"hostile probes", "replays refused", "victim", "bystander", "attacker", "denied", "recovers"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("tenant report missing %q: %q", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "hostile") {
		t.Errorf("-v produced no per-seed tenant progress: %q", errOut.String())
	}
}

func TestMigrateRunExitsZero(t *testing.T) {
	var out, errOut bytes.Buffer
	code := appMain([]string{"-migrate", "-seeds", "2", "-v"}, &out, &errOut)
	if code != 0 {
		t.Fatalf("exit code %d, stdout: %s stderr: %s", code, out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "migrate PASS") {
		t.Errorf("missing migrate PASS summary: %q", out.String())
	}
	for _, want := range []string{"attacks refused typed", "crash cuts clean", "resumes", "retired", "migrant", "skipped", "attest"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("migrate report missing %q: %q", want, out.String())
		}
	}
	if !strings.Contains(errOut.String(), "migrations") {
		t.Errorf("-v produced no per-seed migrate progress: %q", errOut.String())
	}
}

func TestBadFlagsExitTwo(t *testing.T) {
	cases := [][]string{
		{"-model", "quantum"},
		{"-model", ""},
		{"-seeds", "0"},
		{"-devpages", "9", "-pages", "3"},
		{"-nonsense"},
		{"stray-positional"},
		{"-crash", "-chaos", "recoverable"},
		{"-crash", "-link"},
		{"-link", "-chaos", "recoverable"},
		{"-linkplan", "down@0..5"},
		{"-queuecap", "4"},
		{"-link", "-linkplan", "down@5..2"},
		{"-serve", "-chaos", "recoverable"},
		{"-serve", "-link"},
		{"-serve", "-crash"},
		{"-serve", "-linkplan", "down@0..5"},
		{"-clients", "4"},
		{"-workers", "4"},
		{"-tenant", "-serve"},
		{"-tenant", "-chaos", "recoverable"},
		{"-tenant", "-linkplan", "down@0..5"},
		{"-tenant", "-clients", "4"},
		{"-migrate", "-tenant"},
		{"-migrate", "-serve"},
		{"-migrate", "-crash"},
		{"-migrate", "-chaos", "recoverable"},
		{"-migrate", "-linkplan", "down@0..5"},
		{"-migrate", "-clients", "4"},
		{"-migrate", "-workers", "4"},
	}
	for _, args := range cases {
		var out, errOut bytes.Buffer
		if code := appMain(args, &out, &errOut); code != 2 {
			t.Errorf("args %v: exit code %d, want 2", args, code)
		}
	}
}

func TestParseModels(t *testing.T) {
	if ms, err := parseModels("salus, conventional"); err != nil || len(ms) != 2 {
		t.Errorf("parseModels(\"salus, conventional\") = %v, %v", ms, err)
	}
	if _, err := parseModels("bogus"); err == nil {
		t.Error("parseModels accepted an unknown model")
	}
}

// TestProbeFailurePrintsRerun: a replay-mode failure that carries no
// shrunk reproducer (the link rollback probe) is reported as the command
// that reruns its seed, not as an empty regression-test block.
func TestProbeFailurePrintsRerun(t *testing.T) {
	var out bytes.Buffer
	fs := flag.NewFlagSet("salus-check", flag.ContinueOnError)
	fs.Bool("link", false, "")
	fs.Int("ops", 0, "")
	fs.Int64("seed", 0, "")
	if err := fs.Parse([]string{"-link", "-ops", "50", "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	o := &opts{fs: fs, stdout: &out}
	f := &check.Failure{Seq: check.Sequence{Seed: 9}, OpIdx: -1, Target: "salus-link/rollback-probe",
		Loc: "rollback probe", Reason: "drain accepted a rolled-back page"}
	if code := o.replayFailure("link ", f); code != 1 {
		t.Fatalf("exit code %d, want 1", code)
	}
	got := out.String()
	if !strings.Contains(got, "reproduce: salus-check -link -ops 50 -seed 9 -seeds 1\n") {
		t.Errorf("missing rerun command:\n%s", got)
	}
	if strings.Contains(got, "regression test") {
		t.Errorf("probe failure printed an empty regression-test block:\n%s", got)
	}
}
