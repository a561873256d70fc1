// Command salus-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	salus-bench -fig 10            # one figure (3, 10, 11, 12, 13, 14)
//	salus-bench -table 1           # configuration tables (1, 2)
//	salus-bench -ablation          # cumulative mechanism ablation
//	salus-bench -workloads         # the synthetic workload suite
//	salus-bench -breakdown nw      # per-class traffic for one workload
//	salus-bench -all               # everything (several minutes)
//	salus-bench -quick -all        # reduced campaign (seconds)
//	salus-bench -perf              # wall-clock perf snapshot (JSON to stdout)
//	salus-bench -perf-compare BENCH_perf.json   # perf regression gate
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/salus-sim/salus/internal/experiments"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is the testable entry point.
func appMain(args []string, stdout, stderr io.Writer) int {
	flag := flag.NewFlagSet("salus-bench", flag.ContinueOnError)
	flag.SetOutput(stderr)
	fig := flag.Int("fig", 0, "figure to regenerate (3, 10, 11, 12, 13, 14)")
	table := flag.Int("table", 0, "configuration table to print (1, 2)")
	ablation := flag.Bool("ablation", false, "run the mechanism ablation study")
	sensitivity := flag.Bool("sensitivity", false, "run the metadata-cache capacity sweep (extension)")
	counterOrg := flag.Bool("counters", false, "run the counter-organisation study (extension)")
	migration := flag.Bool("migration", false, "run the migration-granularity study (extension)")
	seeds := flag.Int("seeds", 0, "run the seed-stability study with N workload seed sets (extension)")
	workloads := flag.Bool("workloads", false, "print the workload suite")
	coverage := flag.Bool("coverage", false, "print per-workload channel coverage characterisation")
	breakdown := flag.String("breakdown", "", "per-class traffic breakdown for one workload")
	all := flag.Bool("all", false, "regenerate everything")
	quick := flag.Bool("quick", false, "use the reduced quick campaign")
	verbose := flag.Bool("v", false, "print per-simulation progress")
	format := flag.String("format", "text", "output format: text, json, or csv")
	perf := flag.Bool("perf", false, "record a wall-clock perf snapshot (JSON to stdout)")
	perfCompare := flag.String("perf-compare", "", "re-measure and gate against a recorded perf snapshot")
	perfProcs := flag.Int("perf-procs", 8, "GOMAXPROCS for the perf workloads")
	if err := flag.Parse(args); err != nil {
		return 2
	}

	if *perf || *perfCompare != "" {
		return perfMain(*perf, *perfCompare, *perfProcs, stdout, stderr)
	}

	outFormat, err := experiments.ParseFormat(*format)
	if err != nil {
		fmt.Fprintln(stderr, "salus-bench:", err)
		return 2
	}
	settings := experiments.Default()
	if *quick {
		settings = experiments.Quick()
	}
	runner := experiments.NewRunner(settings)
	if *verbose {
		runner.Progress = func(s string) { fmt.Fprintln(stderr, s) }
	}

	failed := false
	emit := func(res *experiments.FigResult, err error) {
		if err != nil {
			fmt.Fprintln(stderr, "salus-bench:", err)
			failed = true
			return
		}
		out, err := res.Render(outFormat)
		if err != nil {
			fmt.Fprintln(stderr, "salus-bench:", err)
			failed = true
			return
		}
		fmt.Fprintln(stdout, out)
	}

	want := map[string]bool{
		fmt.Sprintf("table%d", *table): true,
		fmt.Sprintf("fig%d", *fig):     true,
		"workloads":                    *workloads,
		"coverage":                     *coverage,
		"ablation":                     *ablation,
		"sensitivity":                  *sensitivity,
		"counters":                     *counterOrg,
		"migration":                    *migration,
		"seeds":                        *seeds > 1,
	}
	ran := false
	for _, step := range runner.Steps(*seeds) {
		if *all || want[step.Key] {
			emit(step.Run())
			ran = true
		}
	}
	if *breakdown != "" {
		emit(runner.TrafficBreakdown(*breakdown))
		ran = true
	}
	if !ran {
		flag.Usage()
		return 2
	}
	if failed {
		return 1
	}
	return 0
}
