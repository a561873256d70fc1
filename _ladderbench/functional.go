package main

import (
	"fmt"
	"runtime"
	"time"

	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
)

const (
	clients     = 2       // closed-loop client goroutines of the functional workloads
	streamOps   = 1 << 17 // ops per generated client stream (clients cycle through it)
	windows     = 20      // latency windows per measured interval
	setupReps   = 5       // set-ups per run; setup_s is their median
	tracedOpCap = 20000   // ops per client in the traced phase, bounding the span file
)

// funcSpec describes one closed-loop workload over the functional stack.
type funcSpec struct {
	name       string
	shape      shape
	writeOneIn int
	// pages lists the pool-global pages client c owns.
	pages func(c int) []int
	// mainTargets builds the targets the timed clients drive, one per
	// client, over fresh state.
	mainTargets func(sh shape) (*mainStack, error)
}

// mainStack is the system under test of a workload's timed phase.
type mainStack struct {
	targets []target
	stats   func() securemem.OpStats
	report  func() (serve.Report, bool)
	tenants *tenantRung // non-nil when the tenant layer is in the path
}

var hotServe = funcSpec{
	name:       "hot-serve",
	shape:      shape{tenants: 1, pages: 128, frames: 64},
	writeOneIn: 8, // 7 reads per write
	pages: func(c int) []int {
		// Client c owns the working-set pages of its half of the shards
		// (page p is in shard p mod DefaultShards), so the clients never
		// share a shard lock; what they contend on is the service.
		var out []int
		for p := 0; p < 64; p++ {
			if (p%securemem.DefaultShards)*clients/securemem.DefaultShards == c {
				out = append(out, p)
			}
		}
		return out
	},
	mainTargets: func(sh shape) (*mainStack, error) {
		cr, err := newConcurrentRung(sh)
		if err != nil {
			return nil, err
		}
		srvs, err := newServers(cr.engs)
		if err != nil {
			return nil, err
		}
		ms := &mainStack{stats: cr.stats, report: func() (serve.Report, bool) { return serveReport(srvs), true }}
		for c := 0; c < clients; c++ {
			ms.targets = append(ms.targets, &serveRung{sh: sh, srvs: srvs, tag: fmt.Sprintf("client-%d", c)})
		}
		return ms, nil
	},
}

var tenantThrash = funcSpec{
	name:       "tenant-thrash",
	shape:      shape{tenants: 4, pages: 64, frames: 16},
	writeOneIn: 2, // 1 read per write
	pages: func(c int) []int {
		// Every page of half the tenants. With both clients on every
		// tenant they spent about half their time queued on each other's
		// page migrations under the tenant engine's lock, so the run
		// measured lock convoys, and those swing with host CPU steal.
		return pageRange(c*2*64, 2*64)
	},
	mainTargets: func(sh shape) (*mainStack, error) {
		tr, err := newTenantRung(sh)
		if err != nil {
			return nil, err
		}
		ms := &mainStack{stats: tr.stats, report: func() (serve.Report, bool) { return serve.Report{}, false }, tenants: tr}
		for c := 0; c < clients; c++ {
			ms.targets = append(ms.targets, tr)
		}
		return ms, nil
	},
}

func runHotServe(cfg runConfig) (*outcome, error)     { return runFunctional(cfg, hotServe) }
func runTenantThrash(cfg runConfig) (*outcome, error) { return runFunctional(cfg, tenantThrash) }

// prepared is one set-up: generated inputs plus the warmed main stack.
type prepared struct {
	streams []*stream
	content []byte
	warmed  []int
	stack   *mainStack
	clients []*client
}

func (sp funcSpec) prepare(seed int64) (*prepared, error) {
	p := &prepared{content: fillBytes(subSeed(seed, sp.name+"/content", 0), sp.shape.totalBytes())}
	for c := 0; c < clients; c++ {
		pages := sp.pages(c)
		p.warmed = append(p.warmed, pages...)
		p.streams = append(p.streams, genStream(subSeed(seed, sp.name+"/stream", c),
			streamSpec{pages: pages, writeOneIn: sp.writeOneIn, n: streamOps}))
	}
	st, err := sp.mainTargets(sp.shape)
	if err != nil {
		return nil, err
	}
	if err := warm(st.targets[0], p.content, p.warmed); err != nil {
		return nil, err
	}
	p.stack = st
	for c := 0; c < clients; c++ {
		p.clients = append(p.clients, &client{t: st.targets[c], st: p.streams[c], shadow: p.shadow(), id: c})
	}
	return p, nil
}

func (p *prepared) shadow() []byte { return append([]byte(nil), p.content...) }

func runFunctional(cfg runConfig, sp funcSpec) (*outcome, error) {
	p, setupS, err := medianSetup(setupReps, func() (*prepared, error) { return sp.prepare(cfg.seed) })
	if err != nil {
		return nil, err
	}
	if cfg.trace {
		return runLadder(cfg, sp, p)
	}
	out := &outcome{metrics: map[string]float64{}}
	dur := cfg.duration(1)
	start := time.Now()
	ls := make([]*latencies, clients)
	for c, cl := range p.clients {
		ls[c] = newLatencies(start, dur/windows, windows, uint64(subSeed(cfg.seed, "reservoir", c)))
		cl.lat = ls[c]
	}
	before := p.stack.stats()
	r := drive(p.clients, dur, 0)
	out.attempted, out.failed = r.ops, r.failed
	checkPagePath(out, subOpStats(p.stack.stats(), before))
	if rep, ok := p.stack.report(); ok {
		checkServeReport(out, rep)
	}
	s := summarize(ls, windows)
	out.metrics["ops_per_s"] = s.opsPerS
	out.metrics["op_p50_us"] = s.p50us
	out.metrics["op_p99_us"] = s.p99us
	out.metrics["success_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	out.metrics["setup_s"] = setupS
	out.metrics["peak_rss_mb"] = peakRSSMB()
	fmt.Printf("# %s: %d clients closed loop, %d ops, %d latency samples over %d windows\n",
		sp.name, clients, r.ops, s.samples, windows)
	return out, nil
}

// checkPagePath holds the run to Salus's headline property: data
// changing location is never re-encrypted.
func checkPagePath(out *outcome, d securemem.OpStats) {
	if d.RelocationReEncryptions != 0 {
		out.problem("securemem.relocation_reenc = %d, want 0 under Salus", d.RelocationReEncryptions)
	}
}

// checkServeReport holds the service to the unloaded-refusal design:
// every request the benchmark sends must be served.
func checkServeReport(out *outcome, rep serve.Report) {
	for c := range rep.Ops {
		o := rep.Ops[c]
		if o.Served != o.Attempts() {
			out.problem("serve class %d served %d of %d requests", c, o.Served, o.Attempts())
		}
	}
}

// ladderShares splits a traced run's measuring time between its phases.
var ladderShares = struct {
	rung, crypto, main float64
}{rung: 0.08, crypto: 0.06, main: 0.22}

// runLadder is the traced run of a functional workload: the same seeded
// streams replayed rung by rung with one client (System, Concurrent,
// Tenant, serve.Do), the two-client Concurrent at GOMAXPROCS 2 and 1,
// the crypto micro costs, then the main stack untraced and traced.
func runLadder(cfg runConfig, sp funcSpec, p *prepared) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	m := out.metrics
	sh := sp.shape
	merged := interleave(p.streams)
	rungDur := cfg.duration(ladderShares.rung)

	// oneClient replays the merged stream on a fresh, warmed target.
	oneClient := func(t target) (phaseResult, float64, error) {
		if err := warm(t, p.content, p.warmed); err != nil {
			return phaseResult{}, 0, err
		}
		cl := &client{t: t, st: merged, shadow: p.shadow()}
		a := readRuntime()
		r := drive([]*client{cl}, rungDur, 0)
		b := readRuntime()
		out.attempted += r.ops
		out.failed += r.failed
		return r, float64(b.allocs-a.allocs) / float64(r.ops), nil
	}

	sr, err := newSystemRung(sh)
	if err != nil {
		return nil, err
	}
	cr, err := newConcurrentRung(sh)
	if err != nil {
		return nil, err
	}
	tr, err := newTenantRung(sh)
	if err != nil {
		return nil, err
	}
	sc, err := newConcurrentRung(sh)
	if err != nil {
		return nil, err
	}
	srvs, err := newServers(sc.engs)
	if err != nil {
		return nil, err
	}
	rungs := []target{sr, cr, tr, &serveRung{sh: sh, srvs: srvs, tag: "ladder"}}
	res := make([]phaseResult, len(rungs))
	allocs := make([]float64, len(rungs))
	for i, t := range rungs {
		if res[i], allocs[i], err = oneClient(t); err != nil {
			return nil, err
		}
	}
	sys, conc, ten, srv := res[0], res[1], res[2], res[3]

	// twoClients runs the clients' own streams on a fresh Concurrent.
	twoClients := func(procs int) (phaseResult, error) {
		c2, err := newConcurrentRung(sh)
		if err != nil {
			return phaseResult{}, err
		}
		if err := warm(c2, p.content, p.warmed); err != nil {
			return phaseResult{}, err
		}
		var cs []*client
		for c := 0; c < clients; c++ {
			cs = append(cs, &client{t: c2, st: p.streams[c], shadow: p.shadow(), id: c})
		}
		prev := runtime.GOMAXPROCS(procs)
		r := drive(cs, rungDur, 0)
		runtime.GOMAXPROCS(prev)
		out.attempted += r.ops
		out.failed += r.failed
		return r, nil
	}
	par, err := twoClients(runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	par1, err := twoClients(1)
	if err != nil {
		return nil, err
	}

	costs, err := measureCrypto(cfg.duration(ladderShares.crypto))
	if err != nil {
		return nil, err
	}

	// The main stack: untraced for the counts, then traced for spans
	// and the tracing overhead.
	mainDur := cfg.duration(ladderShares.main)
	before, rt0 := p.stack.stats(), readRuntime()
	plain := drive(p.clients, mainDur, 0)
	rt1 := readRuntime()
	delta := subOpStats(p.stack.stats(), before)
	out.attempted += plain.ops
	out.failed += plain.failed
	checkPagePath(out, delta)
	origin := time.Now()
	for c, cl := range p.clients {
		cl.spans = newSpanLog(origin, c)
		out.spans = append(out.spans, cl.spans)
	}
	traced := drive(p.clients, mainDur, tracedOpCap)
	out.attempted += traced.ops
	out.failed += traced.failed

	m["cryptoeng.encrypt_sector_ns"] = costs.encryptSectorNs
	m["cryptoeng.verify_mac_ns"] = costs.verifyMACNs
	m["cryptoeng.encrypt_page_ns"] = costs.encryptPageNs
	wallPerOp := float64(clients) * 1e9 / plain.opsPerS()
	m["cryptoeng.est_share"] = costs.estimatedCryptoNsPerOp(delta, plain.ops) / wallPerOp

	m["securemem.system_ns_per_op"] = sys.nsPerOp()
	m["securemem.concurrent_ns_per_op"] = conc.nsPerOp()
	m["securemem.lock_overhead_ns"] = conc.nsPerOp() - sys.nsPerOp()
	m["securemem.parallel_speedup"] = par.opsPerS() / conc.opsPerS()
	m["securemem.parallel_speedup_gomaxprocs1"] = par1.opsPerS() / conc.opsPerS()
	pagePathMetrics(m, delta, plain.ops)

	m["tenant.ns_per_op"] = ten.nsPerOp()
	m["tenant.overhead_ns"] = ten.nsPerOp() - conc.nsPerOp()
	if p.stack.tenants != nil {
		tenantMetrics(m, p.stack.tenants.pool)
	} else {
		tenantMetrics(m, tr.pool)
	}
	m["serve.ns_per_op"] = srv.nsPerOp()
	m["serve.overhead_ns"] = srv.nsPerOp() - conc.nsPerOp()
	rep, ok := p.stack.report()
	if !ok {
		rep = serveReport(srvs)
	}
	checkServeReport(out, rep)
	serveMetrics(m, rep)

	runtimeMetrics(m, rt0, rt1, plain.ops)
	m["runtime.allocs_per_op.system"] = allocs[0]
	m["runtime.allocs_per_op.concurrent"] = allocs[1]
	m["runtime.allocs_per_op.tenant"] = allocs[2]
	m["runtime.allocs_per_op.serve"] = allocs[3]
	m["trace.overhead_pct"] = (plain.opsPerS()/traced.opsPerS() - 1) * 100
	fillCommon(out)
	fmt.Printf("# %s ladder ns/op: system %.0f, concurrent %.0f, tenant %.0f, serve %.0f; 2 clients %.0f ops/s (GOMAXPROCS 1: %.0f)\n",
		sp.name, sys.nsPerOp(), conc.nsPerOp(), ten.nsPerOp(), srv.nsPerOp(), par.opsPerS(), par1.opsPerS())
	return out, nil
}

// fillCommon sets the per-layer metrics every traced run reports.
func fillCommon(out *outcome) {
	out.metrics["bench.error_rate"] = float64(out.failed) / float64(max(out.attempted, 1))
	out.metrics["env.num_cpu"] = float64(runtime.NumCPU())
	out.metrics["env.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
}
