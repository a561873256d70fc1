// Command salus-check runs the differential model-equivalence checker: it
// replays seeded randomized operation sequences against every protection
// model plus a plain in-memory oracle, asserting plaintext equivalence and
// the Salus security invariants after every operation.
//
// Usage:
//
//	salus-check                          # CI smoke budget (25 seeds × 200 ops)
//	salus-check -seeds 100 -ops 500      # a deeper campaign
//	salus-check -seed 42 -seeds 1 -v     # replay one seed, with progress
//	salus-check -model salus             # restrict the model set
//	salus-check -chaos recoverable       # inject transient link faults
//	salus-check -chaos unrecoverable     # also inject uncorrectable media errors
//	salus-check -crash                   # power-loss injection on the checkpoint journal
//	salus-check -link                    # CXL link flaps + degraded-mode verification
//	salus-check -link -linkplan down@40..70 -queuecap 4
//	salus-check -serve                   # combined-chaos service campaign
//	salus-check -serve -seeds 50 -clients 21 -ops 60
//	salus-check -tenant                  # hostile-tenant isolation campaign
//	salus-check -tenant -seeds 50 -workers 3 -ops 70
//	salus-check -migrate                 # attested live-migration campaign
//	salus-check -migrate -seeds 50 -v
//
// Chaos mode arms every model with a deterministic fault injector. Under a
// recoverable plan the replay still demands byte-identical plaintext; under
// an unrecoverable plan every fault must surface as a typed error or
// quarantine — a silent divergence fails the run either way.
//
// Link mode (exclusive with -chaos and -crash, Salus-only) replays every
// seed under a set of deterministic CXL link flap plans — scripted outage
// windows, brownout latency, and rate-driven episodes — asserting the
// degraded-mode contract: device-resident hits keep serving, every refused
// op fails with a typed link error, parked writebacks all drain on
// recovery, the post-drain state is byte-identical to a no-outage run, and
// a home-tier rollback staged during an outage is detected on drain.
//
// Serve mode (exclusive with the others, Salus-only) runs the
// traffic-service campaign: per seed, a fleet of concurrent client
// streams drives a serve.Server while transient faults, link outages,
// and crash/recover cycles land mid-traffic simultaneously. It asserts
// that every rejection is typed, that no read ever silently diverges
// from the per-client oracles, that outcomes conserve, and that the
// per-class availability SLO floors hold on the campaign aggregate.
//
// Tenant mode (exclusive with the others, Salus-only) runs the
// cross-tenant leak campaign: three tenants — a victim, a bystander,
// and an attacker — share one pool through per-tenant key domains and
// address-space slices. The attacker mixes honest traffic with
// slice-straddling probes, replayed sibling ciphertext, and
// quota-pressure storms while transient faults, link outages, and
// crash/recover cycles land on its domain alone. It asserts that every
// hostile probe is refused typed (never bytes), that no sibling byte
// ever moves, that per-tenant differential oracles stay byte-identical,
// and that the healthy tenants' availability holds the SLO floor even
// while the attacker's domain is deliberately wrecked.
//
// Migrate mode (exclusive with the others, Salus-only) runs the
// attested live-migration campaign: per seed an honest migration is
// held to a differential oracle against a no-migration control run, a
// second migration cuts over under live serve traffic inside a
// quiesced engine swap, a man-in-the-middle phase replays a recorded
// stream tape with every mutation class at every record boundary
// against fresh destinations, endpoint crashes are simulated at every
// stream boundary, a scripted link outage must park the session typed
// and resumable and then complete without re-streaming verified
// chunks, and the migrated-away source identity is destroyed (keys
// zeroized, frames reclaimed). Every attack must be refused with a
// typed migrate error while the source keeps serving, the destination
// is never left half-applied, and bystander tenants on every pool
// never move a byte.
//
// Crash mode (exclusive with -chaos, Salus-only) journals incremental
// checkpoints of a generated workload onto a write/sync tape, then cuts
// power at every event boundary under every damage mode and recovers with
// the trusted root the TCB would have held at that instant. Honest cuts
// must reconstruct the last committed epoch byte-identically; a corrupted
// synced region must surface as a typed torn-checkpoint or rollback error;
// a replayed stale journal must be rejected as a rollback.
//
// On a violation it exits 1. The replay modes (differential, chaos, crash,
// link) print the shrunk minimal reproducer both as an op listing and as a
// ready-to-commit Go regression test; the concurrent modes (serve, tenant,
// migrate) print their violations and the command that reruns the failing
// seed. Misuse exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/salus-sim/salus/internal/check"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/metrics"
	"github.com/salus-sim/salus/internal/securemem"
)

func main() {
	os.Exit(appMain(os.Args[1:], os.Stdout, os.Stderr))
}

// parseModels turns a comma-separated model list into securemem models.
func parseModels(spec string) ([]securemem.Model, error) {
	var models []securemem.Model
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		for _, m := range []securemem.Model{securemem.ModelNone, securemem.ModelConventional, securemem.ModelSalus} {
			if name == m.String() {
				models, name = append(models, m), ""
			}
		}
		if name != "" {
			return nil, fmt.Errorf("unknown model %q (want none, conventional, salus)", name)
		}
	}
	if len(models) == 0 {
		return nil, fmt.Errorf("empty model list")
	}
	return models, nil
}

// opts is the parsed command line a mode runs from.
type opts struct {
	fs       *flag.FlagSet
	ints     map[string]int  // every int flag by name
	set      map[string]bool // flags typed on the command line
	seed     int64
	models   []securemem.Model
	chaos    string
	linkPlan string
	verbose  func(string)
	stdout   io.Writer
	stderr   io.Writer
}

// plan copies the flags into a plan: dst maps flag names to the plan
// fields they set. The replay modes take every flag value, defaults
// included, since those defaults are their smoke budget; the concurrent
// modes keep their own defaults for flags that were not typed. The
// clients, workers and queuecap flags apply only when positive.
func (o *opts) plan(c *check.Campaign, all bool, dst map[string]*int) {
	if all || o.set["seeds"] {
		c.Seeds = o.ints["seeds"]
	}
	if all || o.set["seed"] {
		c.FirstSeed = o.seed
	}
	c.Verbose = o.verbose
	for name, p := range dst {
		switch v := o.ints[name]; name {
		case "clients", "workers", "queuecap":
			if v > 0 {
				*p = v
			}
		default:
			if all || o.set[name] {
				*p = v
			}
		}
	}
}

// replayFailure prints a replay mode's shrunk failure and its reproducer.
func (o *opts) replayFailure(label string, f *check.Failure) int {
	fmt.Fprintf(o.stdout, "salus-check: %sFAIL: %s\n\n", label, f)
	if f.Repro == "" { // a probe failure: there is no sequence to shrink
		return o.rerun(f.Seq.Seed)
	}
	fmt.Fprintf(o.stdout, "minimal reproducer (%d ops):\n", len(f.Seq.Ops))
	for i, op := range f.Seq.Ops {
		fmt.Fprintf(o.stdout, "  %3d: %v\n", i, op)
	}
	fmt.Fprintf(o.stdout, "\nregression test:\n\n%s", f.Repro)
	return 1
}

// violations prints a concurrent mode's violations. Their interleaving is
// not replayable op by op, so a failing seed is reported as the command
// that reruns it alone.
func (o *opts) violations(label string, seeds int, vs []string) int {
	fmt.Fprintf(o.stdout, "salus-check: %s FAIL: %d violations after %d seeds\n", label, len(vs), seeds)
	for _, v := range vs {
		fmt.Fprintf(o.stdout, "  %s\n", v)
	}
	var seed int64
	if _, err := fmt.Sscanf(vs[0], "seed %d:", &seed); err == nil {
		return o.rerun(seed)
	}
	return 1
}

// rerun prints the command that reruns one seed alone with every other
// flag as given, and returns the failing exit code.
func (o *opts) rerun(seed int64) int {
	cmd := []string{"salus-check"}
	o.fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "seeds", "v":
		default:
			cmd = append(cmd, "-"+f.Name)
			if b, ok := f.Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() {
				cmd = append(cmd, f.Value.String())
			}
		}
	})
	fmt.Fprintf(o.stdout, "reproduce: %s -seed %d -seeds 1\n", strings.Join(cmd, " "), seed)
	return 1
}

// mode is one campaign: the flag that selects it ("" for the
// differential default) and its usage, the mode-specific flags it
// refuses, and how it runs and reports. Every mode but the differential
// one checks a ModelSalus engine and ignores -model. The differential
// mode is last in modes and runs when no selecting flag is given.
type mode struct {
	flag, usage string
	rejects     []string
	run         func(o *opts) int
}

var modes = []mode{
	{"migrate", "attested live-migration campaign: differential-oracle migrations, MITM tape attacks at every record boundary, endpoint crashes, link-loss resume, source retirement (Salus-only, exclusive with the other modes)",
		[]string{"chaos", "linkplan", "clients", "workers"}, func(o *opts) int {
			plan := check.DefaultMigratePlan()
			o.plan(&plan.Campaign, false, map[string]*int{
				"pages": &plan.PagesPerTenant, "devpages": &plan.FramesPerTenant, "queuecap": &plan.QueueCap})
			res := check.RunMigrate(plan)
			if res.Failed() {
				return o.violations("migrate", res.SeedsRun, res.Violations)
			}
			fmt.Fprintf(o.stdout, "salus-check: migrate PASS: %d seeds, %d migrations, %d serve requests; %d/%d attacks refused typed, %d crash cuts clean, %d resumes (%d retries), %d identities retired\n",
				res.SeedsRun, res.Migrations, res.ServeRequests,
				res.TypedRejections, res.Attacks, res.CrashCuts, res.Resumes, res.Retries, res.Destroyed)
			fmt.Fprint(o.stdout, res.Table())
			return 0
		}},
	{"tenant", "hostile-tenant isolation campaign: victim/bystander/attacker domains over one pool, cross-tenant probes and chaos on the attacker only (Salus-only, exclusive with the other modes)",
		[]string{"chaos", "linkplan", "clients"}, func(o *opts) int {
			plan := check.DefaultTenantPlan()
			o.plan(&plan.Campaign, false, map[string]*int{"ops": &plan.OpsPerWorker, "pages": &plan.PagesPerTenant,
				"devpages": &plan.FramesPerTenant, "workers": &plan.WorkersPerTenant, "queuecap": &plan.QueueCap})
			res := check.RunTenant(plan)
			if res.Failed() {
				return o.violations("tenant", res.SeedsRun, res.Violations)
			}
			fmt.Fprintf(o.stdout, "salus-check: tenant PASS: %d seeds, %d workers, %d ops; %d hostile probes (%d denied typed, %d quota refusals), %d/%d replays refused, %d checkpoints (%d refused typed), %d crashes, %d outages, %d tainted bytes\n",
				res.SeedsRun, res.Workers, res.Ops,
				res.HostileProbes, res.TypedDenials, res.QuotaRefusals,
				res.ReplayRefusals, res.ReplayAttacks,
				res.Checkpoints, res.CheckpointRefusals, res.Crashes, res.Outages, res.TaintedBytes)
			fmt.Fprintf(o.stdout, "salus-check: tenant availability: victim %.4f, bystander %.4f (floor %.4f), attacker %.4f under chaos\n",
				res.VictimAvailability, res.BystanderAvailability, plan.VictimSLO, res.AttackerAvailability)
			fmt.Fprint(o.stdout, res.Table())
			return 0
		}},
	{"serve", "combined-chaos service campaign: concurrent client fleets under faults + link flaps + crash/recover at once (Salus-only, exclusive with the other modes)",
		[]string{"chaos", "linkplan", "workers"}, func(o *opts) int {
			plan := check.DefaultServePlan()
			o.plan(&plan.Campaign, false, map[string]*int{"ops": &plan.OpsPerClient, "pages": &plan.TotalPages,
				"devpages": &plan.DevicePages, "clients": &plan.Clients, "queuecap": &plan.QueueCap})
			res := check.RunServe(plan)
			if res.Failed() {
				return o.violations("serve", res.SeedsRun, res.Violations)
			}
			fmt.Fprintf(o.stdout, "salus-check: serve PASS: %d seeds, %d streams, %d requests; %d checkpoints (%d refused typed), %d crashes, %d outages, %d tainted bytes\n",
				res.SeedsRun, res.Streams, res.Ops,
				res.Checkpoints, res.CheckpointRefusals, res.Crashes, res.Outages, res.TaintedBytes)
			fmt.Fprint(o.stdout, res.Tables())
			return 0
		}},
	{"crash", "power-loss injection: enumerate every crash point of the checkpoint journal (Salus-only, exclusive with -chaos)",
		[]string{"chaos", "clients", "workers"}, func(o *opts) int {
			plan := check.DefaultCrashPlan()
			o.plan(&plan.Campaign, true, map[string]*int{"ops": &plan.Ops, "pages": &plan.TotalPages, "devpages": &plan.DevicePages})
			res := check.RunCrash(plan)
			if res.Failure != nil {
				return o.replayFailure("crash ", res.Failure)
			}
			fmt.Fprintf(o.stdout, "salus-check: crash PASS: %d seeds, %d ops, %d epochs committed, %d cuts enumerated: %d recovered byte-identical, %d corruptions detected typed\n",
				res.SeedsRun, res.OpsRun, res.Epochs, res.Cuts, res.Recoveries, res.Detected)
			return 0
		}},
	{"link", "CXL link chaos: replay every seed under deterministic flap plans and verify degraded-mode operation (Salus-only, exclusive with -chaos and -crash)",
		[]string{"chaos", "clients", "workers"}, func(o *opts) int {
			plan := check.DefaultLinkPlan()
			o.plan(&plan.Campaign, true, map[string]*int{"ops": &plan.Ops, "pages": &plan.TotalPages,
				"devpages": &plan.DevicePages, "queuecap": &plan.QueueCap})
			if o.linkPlan != "" {
				if _, err := link.ParsePlan(o.linkPlan); err != nil {
					fmt.Fprintf(o.stderr, "salus-check: -linkplan: %v\n", err)
					return 2
				}
				plan.Plans = []check.NamedLinkPlan{{Name: "custom", Spec: o.linkPlan}}
			}
			res := check.RunLink(plan)
			if res.Failure != nil {
				return o.replayFailure("link ", res.Failure)
			}
			fmt.Fprintf(o.stdout, "salus-check: link PASS: %d seeds × %d plans, %d ops, %d flaps, %d rollback probes detected\n",
				res.SeedsRun, len(plan.Plans), res.OpsRun, res.Flaps, res.RollbackProbes)
			fmt.Fprintf(o.stdout, "salus-check: link availability: %.2f%% of ops served during outages (%d ok, %d refused typed: %d down, %d breaker fast-fails)\n",
				100*metrics.Availability(res.OpsOK, res.OpsRefused), res.OpsOK, res.OpsRefused, res.Refusals, res.FastFails)
			fmt.Fprintf(o.stdout, "salus-check: link writebacks: %d queued = %d drained (%d backpressure drops, peak depth %d, mean depth %.2f, mean parked age %.1f ops)\n",
				res.Queued, res.Drained, res.Dropped, res.QueuePeak,
				metrics.Per(res.DepthSum, res.DepthSamples), metrics.Per(res.AgeSum, res.AgeCount))
			return 0
		}},
	{"", "", []string{"linkplan", "queuecap", "clients", "workers"}, func(o *opts) int {
		cfg := check.DefaultConfig()
		cfg.Models = o.models
		o.plan(&cfg.Campaign, true, map[string]*int{"ops": &cfg.Ops, "pages": &cfg.TotalPages, "devpages": &cfg.DevicePages})
		switch o.chaos {
		case "":
		case "recoverable", "unrecoverable":
			cfg = check.ChaosConfig(cfg, o.chaos == "unrecoverable")
		default:
			fmt.Fprintf(o.stderr, "salus-check: -chaos must be empty, recoverable, or unrecoverable (got %q)\n", o.chaos)
			return 2
		}
		res := check.Run(cfg)
		if res.Failure != nil {
			return o.replayFailure("", res.Failure)
		}
		fmt.Fprintf(o.stdout, "salus-check: PASS: %d seeds, %d ops, %d models, no divergence\n",
			res.SeedsRun, res.OpsRun, len(o.models))
		if f := res.Faults; o.chaos != "" {
			fmt.Fprintf(o.stdout, "salus-check: chaos (%s): %d transient (%d retries, %d backoff cycles), %d poison, %d stuck-bit; recovered %d, quarantined %d frames / %d chunks, pinned %d pages\n",
				o.chaos, f.TransientFaults, f.Retries, f.RetryBackoffCycles,
				f.PoisonFaults, f.StuckBitFaults, f.TransparentRecoveries,
				f.FramesQuarantined, f.ChunksPoisoned, f.PagesPinned)
		}
		return 0
	}},
}

// appMain is the testable entry point.
func appMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("salus-check", flag.ContinueOnError)
	fs.SetOutput(stderr)
	def := check.DefaultConfig()
	ints := map[string]*int{
		"seeds":    fs.Int("seeds", def.Seeds, "number of seeds to run"),
		"ops":      fs.Int("ops", def.Ops, "operations per seed"),
		"pages":    fs.Int("pages", def.TotalPages, "home (CXL) pages in the checked address space"),
		"devpages": fs.Int("devpages", def.DevicePages, "device frames (< pages forces eviction churn)"),
		"clients":  fs.Int("clients", 0, "with -serve: concurrent client streams per seed (0 = campaign default)"),
		"workers":  fs.Int("workers", 0, "with -tenant: worker streams per tenant (0 = campaign default)"),
		"queuecap": fs.Int("queuecap", 0, "with -link: dirty-writeback queue capacity (0 = campaign default)"),
	}
	seed := fs.Int64("seed", def.FirstSeed, "first seed (seeds cover [seed, seed+seeds))")
	model := fs.String("model", "none,conventional,salus", "comma-separated models to check differentially")
	chaos := fs.String("chaos", "", "fault plan: recoverable (transient link faults) or unrecoverable (plus media errors)")
	selected := map[string]*bool{}
	for _, m := range modes[:len(modes)-1] {
		selected[m.flag] = fs.Bool(m.flag, false, m.usage)
	}
	linkPlan := fs.String("linkplan", "", "with -link: a single link plan spec (see internal/link.ParsePlan) replacing the default plan set")
	verbose := fs.Bool("v", false, "print per-seed progress")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "salus-check: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	o := &opts{fs: fs, ints: map[string]int{}, set: map[string]bool{}, seed: *seed,
		chaos: *chaos, linkPlan: *linkPlan, stdout: stdout, stderr: stderr}
	for name, p := range ints {
		o.ints[name] = *p
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if *verbose {
		o.verbose = func(s string) { fmt.Fprintln(stderr, s) }
	}
	var err error
	if o.models, err = parseModels(*model); err != nil {
		fmt.Fprintln(stderr, "salus-check:", err)
		return 2
	}
	if n := o.ints; n["seeds"] < 1 || n["ops"] < 1 || n["pages"] < 1 || n["devpages"] < 1 || n["devpages"] > n["pages"] {
		fmt.Fprintln(stderr, "salus-check: -seeds, -ops, -pages, -devpages must be positive and -devpages <= -pages")
		return 2
	}

	// The mode is the one selecting flag given, or the differential
	// checker; it refuses the mode-specific flags that do not apply.
	m, chosen := modes[len(modes)-1], 0
	for _, cand := range modes[:len(modes)-1] {
		if *selected[cand.flag] {
			m, chosen = cand, chosen+1
		}
	}
	if chosen > 1 {
		fmt.Fprintln(stderr, "salus-check: -crash, -link, -serve, -tenant, and -migrate are exclusive")
		return 2
	}
	given := map[string]bool{"chaos": o.chaos != "", "linkplan": o.linkPlan != "",
		"clients": o.ints["clients"] != 0, "workers": o.ints["workers"] != 0, "queuecap": o.ints["queuecap"] != 0}
	for _, f := range m.rejects {
		if given[f] {
			name := "-" + m.flag
			if m.flag == "" {
				name = "the differential checker"
			}
			fmt.Fprintf(stderr, "salus-check: -%s does not apply to %s\n", f, name)
			return 2
		}
	}
	return m.run(o)
}
