package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// goldenCases are the runs whose full measurement record (Run.String) is
// checked in under testdata. The simulator is deterministic, so stdout is
// compared byte for byte.
var goldenCases = []struct {
	name string
	args []string
}{
	{"none", []string{"-model", "none", "-accesses", "3000"}},
	{"baseline", []string{"-model", "baseline", "-accesses", "3000"}},
	{"salus", []string{"-model", "salus", "-accesses", "3000"}},
	{"trace-bfs", []string{"-workload", "bfs", "-model", "salus", "-trace", "testdata/bfs.trace"}},
}

// TestGolden runs every golden case and compares its output with
// testdata/<name>.golden. Regenerate with
//
//	go test ./cmd/salus-sim -run TestGolden -update
//
// only when a change to the simulator's output is intended.
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errOut bytes.Buffer
			if code := appMain(tc.args, &out, &errOut); code != 0 {
				t.Fatalf("exit code %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
			}
			got := "$ salus-sim " + strings.Join(tc.args, " ") + "\n" + out.String()
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
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
