package check

import (
	"fmt"
	"math/rand"

	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/stats"
)

// Serve-chaos mode: the campaign that earns the service layer its SLOs.
// Per seed, a fleet of concurrent client streams drives a shared
// serve.Server while a chaos driver — paced by the traffic itself, never
// by the wall clock — injects all three failure families at once, for
// the first time mid-traffic:
//
//   - transient faults (a seeded rate plan, engine retries disabled so
//     the service retry budget is the only recovery loop);
//   - CXL link outages (a manual link the driver flaps down and up);
//   - crash/recover cycles (quiesce, checkpoint to a journal, later
//     rebuild the engine from the journal with securemem.Recover and
//     swap it under the live server while the clients' oracles rewind
//     to the matching snapshot).
//
// The contract asserted, per seed and campaign-wide:
//
//   - every rejection is typed (shed, overload, deadline, retry-budget,
//     ambiguous, or a typed engine sentinel) — an untyped error is a
//     violation;
//   - zero silent divergences: every verified read matches the client's
//     oracle modulo bytes tainted by ambiguous writes, and after
//     quiesce the engine state is byte-identical to the oracles;
//   - outcome conservation: every submitted request has exactly one
//     outcome, on both the client and the server side of the counter;
//   - per-class availability meets the configured SLO floors —
//     interactive, which is never shed and keeps serving device-resident
//     reads through outages, is the class held to a floor by default.

// ServePlan sizes a combined-chaos service campaign.
type ServePlan struct {
	Campaign
	Space
	Shards int // engine lock shards

	Clients      int // concurrent client streams per session
	OpsPerClient int // requests each stream submits

	// QueueCap bounds the dirty-writeback queue (ErrQueueFull pressure).
	QueueCap int

	// TransientRate is the per-consultation transient fault probability;
	// FaultBurst bounds how many consecutive attempts one fault eats.
	TransientRate float64
	FaultBurst    int

	// EventEvery is the pace-tick period between chaos events; <= 0
	// disables chaos entirely (a healthy baseline run).
	EventEvery int
	// OutageMin/OutageMax bound a forced link outage in pace ticks.
	OutageMin, OutageMax int

	// SLO holds per-class availability floors in [0, 1]; a zero entry is
	// reported but not asserted. Floors are asserted on the campaign
	// aggregate, after all seeds ran, when SLOAsserted holds.
	SLO [stats.NumServeClasses]float64

	// TenantNames, when non-empty, tags the client streams with tenant
	// identities round-robin, so every request feeds the server's
	// per-tenant counters (Report.Tenants) alongside its class counters.
	TenantNames []string
	// TenantSLO is the per-tenant availability floor in [0, 1],
	// asserted on the campaign aggregate for every named tenant:
	// Served/Attempts. Zero reports without asserting.
	TenantSLO float64

	// Classes overrides the server's per-class tuning; the zero value
	// selects serve.DefaultClasses via serve.New.
	Classes [serve.NumClasses]serve.ClassConfig
}

// DefaultServePlan returns the smoke-budget combined-chaos campaign used
// by `make serve-smoke`: 10 sessions × 21 streams (7 per class) × 60
// requests over a 24-page home space with 6 device frames. The
// interactive floor is deliberately conservative — the point of the
// assertion is "the healthy class keeps serving through combined
// chaos", not a tuned-to-yesterday ratio.
func DefaultServePlan() ServePlan {
	var slo [stats.NumServeClasses]float64
	slo[serve.Interactive] = 0.60
	// Interactive gets a generous retry budget but a tight deadline, so
	// under an outage the concurrent fleet's clock advancement expires
	// requests mid-retry-loop: the campaign exercises typed deadline
	// rejections, not just budget exhaustion.
	var classes [serve.NumClasses]serve.ClassConfig
	classes[serve.Interactive] = serve.ClassConfig{Queue: 64, Retries: 8, Deadline: 24}
	return ServePlan{
		Campaign: Campaign{Seeds: 10, FirstSeed: 1},
		Space:    smallSpace(24, 6),
		Shards:   4,

		Clients:      21,
		OpsPerClient: 60,

		QueueCap: 4,

		TransientRate: 0.01,
		FaultBurst:    2,

		EventEvery: 40,
		OutageMin:  8,
		OutageMax:  24,

		SLO:     slo,
		Classes: classes,

		// Two tenants against three classes keeps the assignments
		// decorrelated (each tenant holds streams of every class). The
		// floor is deliberately far below the interactive one: a
		// tenant's rollup includes its batch and bulk streams, which
		// the degradation ladder sheds by design under outages, and how
		// much of those survive moves with real goroutine scheduling
		// (a race-detector run sheds measurably more). The assertion is
		// "no tenant is starved outright", not a tuned-to-yesterday
		// yield.
		TenantNames: []string{"tenant-a", "tenant-b"},
		TenantSLO:   0.20,
	}
}

// MinSLOSeeds is the fewest seeds whose aggregate availability RunServe
// holds to the SLO floors while chaos is armed. One seed's availability
// still depends on goroutine scheduling: when the degradation ladder
// climbs early, batch and bulk streams are shed out of the run quickly
// and the interactive streams absorb every later outage alone. A
// one-seed campaign misses the default interactive floor about once in
// 200 runs, a two-seed one about once in 150; three seeds average the
// outlier away.
const MinSLOSeeds = 3

// SLOAsserted reports whether RunServe asserts the plan's availability
// floors: from MinSLOSeeds seeds on, and at any seed count when chaos is
// off, since a healthy run's outcomes do not depend on scheduling.
// Otherwise the availability is reported but not asserted.
func (p ServePlan) SLOAsserted() bool {
	return p.Seeds >= MinSLOSeeds || (p.EventEvery <= 0 && p.TransientRate == 0)
}

// serveEnginePolicy is the engine retry policy under service mode: one
// attempt per service attempt. The zero RetryPolicy selects the engine
// default (8 retries), so MaxRetries: 0 must ride with non-zero backoff
// fields to mean what it says.
func serveEnginePolicy() securemem.RetryPolicy {
	return securemem.RetryPolicy{MaxRetries: 0, BaseBackoff: 1, MaxBackoff: 1}
}

// ServeResult summarises a RunServe campaign.
type ServeResult struct {
	Verdict
	Streams int // client streams completed
	Ops     int // requests submitted

	// Aggregate folds every session's server report: per-class outcome
	// counters and served-latency histograms (p50/p99/p999 source).
	Aggregate serve.Report

	Checkpoints        int // successful journal checkpoints
	CheckpointRefusals int // checkpoints refused typed (link down)
	Crashes            int // crash/recover cycles survived
	Outages            int // forced link outages injected
	TaintedBytes       int // bytes still write-ambiguous after quiesce
}

// Tables renders the aggregate outcome (per class and per tenant) and
// latency tables.
func (r *ServeResult) Tables() string {
	return r.Aggregate.OutcomeTable().String() + r.Aggregate.LatencyTable().String()
}

// RunServe runs plan.Seeds combined-chaos traffic sessions and asserts
// the aggregate availability SLOs when plan.SLOAsserted holds. It stops
// after the first session that records violations (the campaign
// convention: report the first broken seed, not a flood).
func RunServe(plan ServePlan) ServeResult {
	var res ServeResult
	plan.each(func(seed int64) (string, bool) {
		res.Streams += plan.Clients
		res.Ops += plan.Clients * plan.OpsPerClient
		progress, vs := runServeSeed(plan, seed, &res)
		return progress, res.record(seed, vs)
	})
	if res.Failed() {
		return res
	}

	// Unasserted floors are zero: res.slo reports nothing below them.
	slo, tenantSLO := plan.SLO, plan.TenantSLO
	if !plan.SLOAsserted() {
		slo, tenantSLO = [stats.NumServeClasses]float64{}, 0
	}
	for c := serve.Class(0); c < serve.NumClasses; c++ {
		res.slo(fmt.Sprintf("class %v", c), res.Aggregate.Availability(c), slo[c])
	}
	if plan.TenantSLO > 0 && len(plan.TenantNames) > 0 {
		if len(res.Aggregate.Tenants) == 0 {
			res.Violations = append(res.Violations,
				"per-tenant SLO configured but no tenant rollup was recorded")
		}
		for _, id := range plan.TenantNames {
			if t, ok := res.Aggregate.Tenants[id]; ok {
				res.slo("tenant "+id, t.Availability(), tenantSLO)
			}
		}
	}
	return res
}

// runServeSeed runs one combined-chaos traffic session — build the
// engine, arm the chaos surface, start the client fleet, drive chaos
// paced by the traffic, then quiesce and verify — folds its counters
// into res and returns its progress line and violations.
func runServeSeed(plan ServePlan, seed int64, res *ServeResult) (string, []string) {
	var vs []string
	fail := func(format string, a ...any) { vs = append(vs, fmt.Sprintf(format, a...)) }

	size := int(plan.size())
	if plan.Clients <= 0 || plan.OpsPerClient <= 0 || size < plan.Clients {
		fail("plan sizing: %d clients × %d ops over %d bytes", plan.Clients, plan.OpsPerClient, size)
		return "", vs
	}

	// --- Engine with the full chaos surface attached. ---
	memCfg := plan.memConfig()
	memCfg.Shards = plan.Shards
	eng, err := securemem.NewConcurrent(memCfg)
	if err != nil {
		fail("session setup: %v", err)
		return "", vs
	}
	cs := newChaosSession(seed, plan.TransientRate, plan.FaultBurst, fail)
	eng.AttachLink(cs.freshLink(), nil, plan.QueueCap)
	cs.arm(eng, 0)

	srv, err := serve.New(serve.Config{Engine: eng, Classes: plan.Classes})
	if err != nil {
		fail("session setup: %v", err)
		return "", vs
	}

	// --- Client fleet over disjoint regions, classes round-robin. ---
	region := size / plan.Clients
	clients := make([]*serve.Client, plan.Clients)
	for i := range clients {
		tenantID := ""
		if len(plan.TenantNames) > 0 {
			tenantID = plan.TenantNames[i%len(plan.TenantNames)]
		}
		c, err := serve.NewClient(serve.ClientConfig{
			ID:     i,
			Class:  serve.Class(i % int(serve.NumClasses)),
			Tenant: tenantID,
			Base:   securemem.HomeAddr(i * region),
			Len:    region,
			Ops:    plan.OpsPerClient,
			Seed:   seed<<16 + int64(i),
			Pace:   cs.pace,
		})
		if err != nil {
			fail("session setup: %v", err)
			return "", vs
		}
		clients[i] = c
	}

	// --- Checkpoint/crash machinery. A checkpoint captures the engine
	// root and every client oracle in one quiesced exclusion, with the
	// fault injector detached for the window; a crash rebuilds the
	// engine from the journal and rewinds the oracles to the matching
	// snapshot in one quiesced swap. ---
	snaps := make([]serve.ClientState, len(clients))
	checkpoint := func(int) {
		// The window reports its outcome through cs; the closure never fails.
		_ = srv.WithQuiesced(func(eng *securemem.Concurrent) error {
			cs.checkpoint(eng, func(l *link.Link) { eng.AttachLink(l, nil, plan.QueueCap) }, func() {
				for i, c := range clients {
					snaps[i] = c.Snapshot()
				}
			})
			return nil
		})
	}
	crashRecover := func(int) {
		cs.crash(func(journal []byte, root securemem.TrustedRoot) error {
			return srv.WithQuiescedSwap(func(*securemem.Concurrent) (*securemem.Concurrent, error) {
				sys, err := securemem.Recover(memCfg, journal, root)
				if err != nil {
					return nil, fmt.Errorf("recover from epoch %d: %w", root.Epoch, err)
				}
				// The reboot renegotiates the chaos surface: a fresh link
				// over the same manual plan, a reseeded fault plan.
				reborn := securemem.ConcurrentFrom(sys, plan.Shards)
				reborn.AttachLink(cs.freshLink(), nil, plan.QueueCap)
				cs.arm(reborn, int64(cs.crashes+1)<<24)
				for i, c := range clients {
					c.Restore(snaps[i])
				}
				return reborn, nil
			})
		})
	}

	// --- Traffic plus the chaos driver: 4 in 10 event rolls are link
	// outages, 4 checkpoints, 2 crash/recover cycles. ---
	cs.drive(len(clients), func(i int) { clients[i].Run(srv) },
		rand.New(rand.NewSource(seed^0x5a1e)), plan.EventEvery, plan.OutageMin, plan.OutageMax,
		[]func(int){nil, nil, nil, nil, checkpoint, checkpoint, checkpoint, checkpoint, crashRecover, crashRecover})
	final := srv.Engine()
	cs.quiesce(final)

	// --- Verification: conservation, typed-only outcomes, zero silent
	// divergences modulo surviving write ambiguity. ---
	report := srv.Snapshot()
	var attempts uint64
	for c := serve.Class(0); c < serve.NumClasses; c++ {
		attempts += report.Ops[c].Attempts()
	}
	if want := uint64(plan.Clients * plan.OpsPerClient); attempts != want {
		fail("server outcome conservation: %d outcomes for %d submitted requests", attempts, want)
	}
	tainted := 0
	for _, c := range clients {
		vs = append(vs, c.Violations()...)
		vs = append(vs, c.VerifyFinal(final.Read)...)
		o := c.Outcomes()
		if total := o.Served + o.Shed + o.Deadline + o.Overload + o.Refused + o.Ambiguous + o.Untyped; total != plan.OpsPerClient {
			fail("client outcome conservation: %d outcomes for %d submitted requests", total, plan.OpsPerClient)
		}
		tainted += c.TaintedBytes()
	}

	res.Aggregate.Merge(&report)
	res.Checkpoints += cs.checkpoints
	res.CheckpointRefusals += cs.refused
	res.Crashes += cs.crashes
	res.Outages += cs.outages
	res.TaintedBytes += tainted
	return fmt.Sprintf("%d streams, interactive avail %.3f, %d ckpt (%d refused), %d crashes, %d outages, peak tier %d, %d tainted",
		plan.Clients, report.Availability(serve.Interactive), cs.checkpoints, cs.refused,
		cs.crashes, cs.outages, report.PeakTier, tainted), vs
}
