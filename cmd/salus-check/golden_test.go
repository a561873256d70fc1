package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenCases are the fixed-seed campaign budgets whose output is checked
// in under testdata. The replay modes (plain, chaos, crash, link) are pure
// functions of the seed, so their whole stdout is compared byte for byte.
// The concurrent modes (serve, tenant, migrate) are compared on their
// summary line only, with the counters that depend on goroutine
// interleaving masked; the rest of that line is the surface their
// determinism tests pin.
var goldenCases = []struct {
	name string
	args []string
	pin  func(stdout string) string // nil compares stdout verbatim
}{
	{"plain", []string{"-seeds", "8"}, nil},
	{"chaos-recoverable", []string{"-seeds", "8", "-chaos", "recoverable"}, nil},
	{"chaos-unrecoverable", []string{"-seeds", "8", "-chaos", "unrecoverable"}, nil},
	{"crash", []string{"-crash", "-seeds", "8", "-ops", "72", "-pages", "8", "-devpages", "2"}, nil},
	{"link", []string{"-link", "-seeds", "12", "-ops", "120"}, nil},
	{"serve", []string{"-serve", "-seeds", "6"}, pinSummary(`\d+ tainted bytes`)},
	{"tenant", []string{"-tenant", "-seeds", "6"}, pinSummary(`\d+ quota refusals`, `\d+ tainted bytes`)},
	{"migrate", []string{"-migrate", "-seeds", "6"}, pinSummary(`\d+ serve requests`)},
}

var digits = regexp.MustCompile(`\d+`)

// pinSummary keeps the first stdout line and replaces the digits of every
// match of the varying patterns with "N".
func pinSummary(varying ...string) func(string) string {
	return func(stdout string) string {
		line, _, _ := strings.Cut(stdout, "\n")
		for _, v := range varying {
			line = regexp.MustCompile(v).ReplaceAllStringFunc(line, func(m string) string {
				return digits.ReplaceAllString(m, "N")
			})
		}
		return line + "\n"
	}
}

// TestGolden runs every campaign at its golden budget and compares the
// result with testdata/<name>.golden. Regenerate with
//
//	go test ./cmd/salus-check -run TestGolden -update
//
// only when a change to campaign output is intended.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := appMain(tc.args, &out, &errOut); code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
			}
			got := out.String()
			if tc.pin != nil {
				got = tc.pin(got)
			}
			got = "$ salus-check " + strings.Join(tc.args, " ") + "\n" + got
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s\n--- got:\n%s--- want:\n%s", path, got, want)
			}
		})
	}
}
