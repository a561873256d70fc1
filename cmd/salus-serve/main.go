// Command salus-serve runs the overload-safe traffic service: per seed,
// a fleet of concurrent client streams — interactive, batch, bulk — is
// multiplexed onto one shared Salus-protected engine through admission
// control, bounded queues, per-request deadlines, and capped retry
// budgets, while (unless -chaos=false) transient faults, CXL link
// outages, and crash/recover cycles land mid-traffic.
//
// Usage:
//
//	salus-serve                       # default campaign: 5 sessions × 21 streams
//	salus-serve -report               # add per-class outcome + latency tables
//	salus-serve -seeds 50 -v          # a deeper campaign with progress lines
//	salus-serve -chaos=false -report  # healthy baseline, no chaos injected
//	salus-serve -clients 30 -ops 100 -slo 0.55
//
// The -report tables are the service's SLO surface: per class, the typed
// outcome counters with availability, and the served-latency quantiles
// (p50/p90/p99/p999, in service clock cycles) from the stats histograms.
// Every refusal the service ever issues is typed — shed, overload,
// deadline, retry budget, ambiguous write — and the campaign verifies
// client-side that nothing else ever leaks out, that no read silently
// diverges from the per-client oracles, and that the interactive
// availability floor holds. Any violation exits non-zero.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/salus-sim/salus/internal/check"
	"github.com/salus-sim/salus/internal/serve"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// appMain is the testable entry point.
func appMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salus-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := check.DefaultServePlan()
	seeds := fs.Int("seeds", 5, "traffic sessions to run")
	seed := fs.Int64("seed", def.FirstSeed, "first session seed (sessions cover [seed, seed+seeds))")
	clients := fs.Int("clients", def.Clients, "concurrent client streams per session")
	ops := fs.Int("ops", def.OpsPerClient, "requests per stream")
	pages := fs.Int("pages", def.TotalPages, "home (CXL) pages in the served address space")
	devPages := fs.Int("devpages", def.DevicePages, "device frames (< pages keeps miss traffic up)")
	queueCap := fs.Int("queuecap", def.QueueCap, "dirty-writeback queue capacity")
	chaos := fs.Bool("chaos", true, "inject combined chaos (faults + link outages + crash/recover); false runs a healthy baseline")
	slo := fs.Float64("slo", def.SLO[serve.Interactive], fmt.Sprintf(
		"interactive availability floor asserted on the campaign aggregate (0 disables; under chaos asserted from %d sessions on)", check.MinSLOSeeds))
	report := fs.Bool("report", false, "print per-class outcome and latency (p50/p90/p99/p999) tables")
	verbose := fs.Bool("v", false, "print per-session progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "salus-serve: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if *seeds < 1 || *clients < 1 || *ops < 1 || *pages < 1 || *devPages < 1 || *devPages > *pages {
		fmt.Fprintln(stderr, "salus-serve: -seeds, -clients, -ops, -pages, -devpages must be positive and -devpages <= -pages")
		return 2
	}
	if *slo < 0 || *slo > 1 {
		fmt.Fprintln(stderr, "salus-serve: -slo must be in [0, 1]")
		return 2
	}

	plan := def
	plan.Seeds = *seeds
	plan.FirstSeed = *seed
	plan.Clients = *clients
	plan.OpsPerClient = *ops
	plan.TotalPages = *pages
	plan.DevicePages = *devPages
	plan.QueueCap = *queueCap
	plan.SLO[serve.Interactive] = *slo
	if !*chaos {
		plan.EventEvery = 0
		plan.TransientRate = 0
	}
	if *verbose {
		plan.Verbose = func(s string) { fmt.Fprintln(stderr, s) }
	}

	res := check.RunServe(plan)
	if res.Failed() {
		fmt.Fprintf(stdout, "salus-serve: FAIL: %d violations after %d sessions\n", len(res.Violations), res.SeedsRun)
		for _, v := range res.Violations {
			fmt.Fprintf(stdout, "  %s\n", v)
		}
		return 1
	}
	floor := fmt.Sprintf("floor %.2f", *slo)
	if !plan.SLOAsserted() {
		floor += fmt.Sprintf(", asserted from %d sessions", check.MinSLOSeeds)
	}
	fmt.Fprintf(stdout, "salus-serve: %d sessions, %d streams, %d requests: interactive availability %.4f (%s)\n",
		res.SeedsRun, res.Streams, res.Ops, res.Aggregate.Availability(serve.Interactive), floor)
	fmt.Fprintf(stdout, "salus-serve: chaos: %d checkpoints (%d refused typed), %d crashes, %d link outages, %d tainted bytes\n",
		res.Checkpoints, res.CheckpointRefusals, res.Crashes, res.Outages, res.TaintedBytes)
	if *report {
		fmt.Fprint(stdout, res.Tables())
	}
	return 0
}
