// Package serve is the in-process traffic service: it multiplexes many
// concurrent client streams onto one shared securemem.Concurrent engine
// with real overload protection. The request pipeline is
//
//	shed check -> token-bucket admission -> bounded queue slot ->
//	deadline/retry execution loop -> typed outcome
//
// and every stage fails fast with a typed error — ErrShed, ErrOverload,
// ErrDeadline, ErrRetryBudget, ErrAmbiguous — so no request is ever
// buffered unboundedly, silently dropped, or silently wrong. Time is the
// shared sim.Clock: it advances only when requests do work, so deadlines
// and bucket refills are deterministic functions of load, never of the
// wall clock.
//
// Overload behaviour is class-aware (stats.ServeClass): under link
// pressure the degradation tiers shed bulk traffic first, then batch,
// and never interactive — device-resident reads keep serving through a
// CXL outage because they never touch the link.
package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

// Class identifies a client's traffic class; it is the stats enum so the
// service counters wire straight into stats.Ops.
type Class = stats.ServeClass

// Traffic classes, re-exported for callers of this package.
const (
	Interactive = stats.ServeInteractive
	Batch       = stats.ServeBatch
	Bulk        = stats.ServeBulk
	NumClasses  = stats.NumServeClasses
)

// Typed rejection taxonomy. Every error Do returns wraps exactly one of
// these (or passes a securemem sentinel through typed); errors.Is is the
// supported way to classify an outcome.
var (
	// ErrOverload reports a request refused by admission control: the
	// class token bucket was empty or its bounded queue was full.
	ErrOverload = errors.New("serve: overload (admission refused)")
	// ErrDeadline reports a request whose deadline passed before it
	// could complete.
	ErrDeadline = errors.New("serve: deadline exceeded")
	// ErrShed reports a request refused by a degradation tier before
	// touching the engine.
	ErrShed = errors.New("serve: shed by degradation tier")
	// ErrRetryBudget reports an idempotent request that kept failing
	// after its retry budget was spent.
	ErrRetryBudget = errors.New("serve: retry budget exhausted")
	// ErrAmbiguous reports a write that failed after reaching the
	// engine: the bytes may or may not have been applied, so the service
	// refuses to retry it (a retry could double-apply).
	ErrAmbiguous = errors.New("serve: write failed ambiguously (not retried)")
	// ErrClosed reports a request submitted after Close.
	ErrClosed = errors.New("serve: server closed")
)

// ClassConfig tunes one traffic class.
type ClassConfig struct {
	// Rate is the token-bucket refill rate in tokens per clock cycle;
	// zero or negative disables admission-rate limiting for the class.
	Rate float64
	// Burst is the bucket capacity (minimum 1 when Rate is set).
	Burst float64
	// Queue bounds the class's in-flight requests; at the bound further
	// requests fail fast with ErrOverload. Minimum 1.
	Queue int
	// Retries is the default service-level retry budget for idempotent
	// requests (a Request may override it). Writes never retry.
	Retries int
	// Deadline is the default relative deadline in clock cycles charged
	// to the service clock; zero means no deadline.
	Deadline sim.Cycle
}

// Config configures a Server.
type Config struct {
	// Engine is the shared protected-memory engine. Required.
	Engine *securemem.Concurrent
	// Clock is the shared service clock; nil allocates a fresh one.
	Clock *sim.Clock
	// Classes tunes each traffic class; zero entries take defaults from
	// DefaultConfig.
	Classes [NumClasses]ClassConfig
	// ShedAfter is the consecutive-link-refusal pressure at which the
	// degradation ladder starts shedding bulk traffic (2x sheds batch
	// too); zero selects DefaultShedAfter.
	ShedAfter int
	// RestoreAfter is how many consecutive successes step the ladder
	// back down one tier; zero selects DefaultRestoreAfter.
	RestoreAfter int
}

// Degradation-ladder defaults.
const (
	DefaultShedAfter    = 8
	DefaultRestoreAfter = 16
)

// DefaultClasses returns the default per-class tuning: interactive is
// low-latency (tight deadline, modest retries, generous rate), batch is
// throughput-oriented, bulk is background filler admitted only when
// there is room.
func DefaultClasses() [NumClasses]ClassConfig {
	var c [NumClasses]ClassConfig
	c[Interactive] = ClassConfig{Rate: 0, Burst: 0, Queue: 64, Retries: 4, Deadline: 64}
	c[Batch] = ClassConfig{Rate: 0.50, Burst: 32, Queue: 32, Retries: 2, Deadline: 256}
	c[Bulk] = ClassConfig{Rate: 0.25, Burst: 16, Queue: 16, Retries: 1, Deadline: 1024}
	return c
}

// Request is one client operation. Exactly one of the read/write shapes
// is used: Write=false reads len(Buf) bytes at Addr into Buf, Write=true
// writes Data at Addr.
type Request struct {
	Class Class
	Addr  securemem.HomeAddr
	Write bool
	Data  []byte // write payload
	Buf   []byte // read destination

	// Tenant tags the request for the per-tenant outcome counters in
	// Report.Tenants; empty opts out. Per-tenant admission is
	// internal/tenant's op quota, not a serve stage.
	Tenant string

	// Deadline is the absolute service-clock deadline; zero selects the
	// class default (relative to submission).
	Deadline sim.Cycle
	// OnDone, when set, runs with the outcome before Do returns, while
	// the server still holds its engine lock (the request's stripe) —
	// but only if the request passed admission and reached the engine.
	// Admission refusals (shed, overload) never touched engine state, so
	// OnDone is not called for them; classify those from Do's return
	// value. The engine-lock guarantee is what lets a client mutate its
	// oracle inside OnDone without racing a concurrent quiesce/snapshot.
	OnDone func(err error)
}

// degrade is the degradation ladder: a leaky pressure counter of link
// refusals with hysteresis between the shed and restore thresholds, so
// the tier does not flap request-by-request at a boundary. Every request
// reads the tier and nearly every request reports a success, so both
// stay off the mutex while the ladder is healthy.
type degrade struct {
	mu           sync.Mutex
	shedAfter    int
	restoreAfter int
	pressure     int // link refusals minus successes, floored at 0
	oks          int // consecutive successes toward a tier step-down
	peak         int // highest tier ever reached

	// tier is 0 healthy, 1 shed bulk, 2 shed bulk+batch; quiet is
	// tier == 0 && pressure == 0. Both are written under mu and read
	// without it.
	tier  atomic.Int32
	quiet atomic.Bool
}

// observe folds one engine-touched outcome into the ladder. A success
// while quiet changes nothing: pressure is floored at 0, and oks only
// counts toward a step-down from a tier above 0 (every climb to such a
// tier passes through a refusal, which resets oks).
func (d *degrade) observe(success, linkRefused bool) {
	if !linkRefused && (!success || d.quiet.Load()) {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	tier := int(d.tier.Load())
	if linkRefused {
		d.pressure++
		d.oks = 0
		if d.pressure >= 2*d.shedAfter {
			tier = 2
		} else if d.pressure >= d.shedAfter && tier < 1 {
			tier = 1
		}
	} else {
		if d.pressure > 0 {
			d.pressure--
		}
		d.oks++
		if tier > 0 && d.oks >= d.restoreAfter {
			tier--
			d.oks = 0
		}
	}
	d.peak = max(d.peak, tier)
	d.tier.Store(int32(tier))
	d.quiet.Store(tier == 0 && d.pressure == 0)
}

// peakTier returns the highest tier the ladder ever reached.
func (d *degrade) peakTier() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.peak
}

// Server multiplexes client requests onto the shared engine.
//
// The per-request state is striped by engine shard: a request keyed to
// shard k (by its address, see securemem.Concurrent.ShardOf) holds
// stripe k's state lock shared for its whole engine interaction,
// including the OnDone callback, and records its outcome in stripe k's
// counters. Two requests on disjoint shards therefore write no common
// cache line apart from the service clock and their class's in-flight
// count. WithQuiesced and WithQuiescedSwap lock every stripe's state
// lock in ascending order, so a snapshot or an engine swap can never
// interleave with a half-finished request's oracle update.
//
// Lock order: stripe.state (ascending) -> the engine's shard locks;
// stripe.state -> degrade.mu; stripe.mu is a leaf.
type Server struct {
	// eng is read under any one stripe's state lock and replaced under
	// all of them.
	eng     *securemem.Concurrent
	stripes []stripe
	shardOf func(securemem.HomeAddr) int

	clock   *sim.Clock
	classes [NumClasses]ClassConfig
	admit   [NumClasses]*sim.TokenBucket
	deg     degrade
	closed  atomic.Bool

	_        [cacheLine]byte
	inflight [NumClasses]atomic.Int64 // requests past admission, per class
}

// cacheLine is the padding unit that keeps the stripes, and the
// in-flight counts every request writes, off each other's cache lines.
const cacheLine = 64

// stripe is the request state of one engine shard.
type stripe struct {
	state sync.RWMutex // guards Server.eng; see the Server comment
	mu    sync.Mutex   // guards ops, lat and tops
	ops   [NumClasses]stats.ServeOps
	lat   [NumClasses]stats.Histogram
	tops  map[string]*stats.ServeOps // tagged requests, by Request.Tenant
	_     [cacheLine]byte
}

// New builds a Server over cfg.Engine.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, errors.New("serve: Config.Engine is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = &sim.Clock{}
	}
	defaults := DefaultClasses()
	// The stripe key comes from the first engine's layout. An engine
	// swapped in later is rebuilt with the same geometry; if it were not,
	// requests would still be excluded correctly, only on other stripes.
	s := &Server{
		eng:     cfg.Engine,
		stripes: make([]stripe, cfg.Engine.Shards()),
		shardOf: cfg.Engine.ShardOf,
		clock:   cfg.Clock,
	}
	for i := range s.stripes {
		s.stripes[i].tops = make(map[string]*stats.ServeOps)
	}
	for c := Class(0); c < NumClasses; c++ {
		cc := cfg.Classes[c]
		if cc == (ClassConfig{}) {
			cc = defaults[c]
		}
		if cc.Queue < 1 {
			cc.Queue = 1
		}
		s.classes[c] = cc
		s.admit[c] = sim.NewTokenBucket(cc.Rate, cc.Burst)
	}
	s.deg.shedAfter = cfg.ShedAfter
	if s.deg.shedAfter <= 0 {
		s.deg.shedAfter = DefaultShedAfter
	}
	s.deg.restoreAfter = cfg.RestoreAfter
	if s.deg.restoreAfter <= 0 {
		s.deg.restoreAfter = DefaultRestoreAfter
	}
	s.deg.quiet.Store(true)
	return s, nil
}

// Clock returns the shared service clock.
func (s *Server) Clock() *sim.Clock {
	s.stripes[0].state.RLock()
	defer s.stripes[0].state.RUnlock()
	return s.clock
}

// Tier returns the current degradation tier (0 = healthy).
func (s *Server) Tier() int { return int(s.deg.tier.Load()) }

// Close marks the server closed; subsequent Do calls fail with
// ErrClosed. In-flight requests complete normally.
func (s *Server) Close() { s.closed.Store(true) }

// shedClass reports whether the current tier sheds class c.
func (s *Server) shedClass(c Class) (bool, int) {
	t := int(s.deg.tier.Load())
	return (t >= 1 && c == Bulk) || (t >= 2 && c == Batch), t
}

// retryable reports whether an engine failure may be retried for an
// idempotent request: transports recover (transient faults, link
// refusals, a momentarily full writeback queue); media verdicts and
// integrity verdicts do not.
func retryable(err error) bool {
	return errors.Is(err, securemem.ErrTransient) ||
		errors.Is(err, securemem.ErrLinkDown) ||
		errors.Is(err, securemem.ErrDegraded) ||
		errors.Is(err, securemem.ErrQueueFull)
}

// linkRefused reports whether an engine failure signals link pressure,
// feeding the degradation ladder.
func linkRefused(err error) bool {
	return errors.Is(err, securemem.ErrLinkDown) ||
		errors.Is(err, securemem.ErrDegraded) ||
		errors.Is(err, securemem.ErrQueueFull)
}

// Do runs one request through the full pipeline and returns its typed
// outcome. It is safe for any number of goroutines.
func (s *Server) Do(req *Request) error {
	c := req.Class
	if c < 0 || c >= NumClasses {
		return fmt.Errorf("serve: invalid class %d", int(c))
	}
	if s.closed.Load() {
		return ErrClosed
	}
	k := s.shardOf(req.Addr)
	st := &s.stripes[k]
	if shed, tier := s.shedClass(c); shed {
		st.record(req, stats.ServeOps{Shed: 1}, 0)
		return fmt.Errorf("%w: class %v at tier %d", ErrShed, c, tier)
	}
	now := s.clock.Now()
	if !s.admit[c].Take(now) {
		st.record(req, stats.ServeOps{Overload: 1}, 0)
		return fmt.Errorf("%w: class %v token bucket empty", ErrOverload, c)
	}
	if !s.enter(c) {
		st.record(req, stats.ServeOps{Overload: 1}, 0)
		return fmt.Errorf("%w: class %v queue full (%d in flight)", ErrOverload, c, s.classes[c].Queue)
	}
	defer s.inflight[c].Add(-1)

	s.stripes[k].state.RLock()
	defer s.stripes[k].state.RUnlock()
	return s.run(req, c, st, now)
}

// enter claims one of class c's in-flight places, refusing at the class
// Queue bound.
func (s *Server) enter(c Class) bool {
	bound := int64(s.classes[c].Queue)
	for {
		n := s.inflight[c].Load()
		if n >= bound {
			return false
		}
		if s.inflight[c].CompareAndSwap(n, n+1) {
			return true
		}
	}
}

// run is the execution loop; the caller holds st's engine read lock.
// start is the service time the request was admitted at.
func (s *Server) run(req *Request, c Class, st *stripe, start sim.Cycle) error {
	cc := s.classes[c]
	deadline := req.Deadline
	if deadline == 0 && cc.Deadline > 0 {
		deadline = start + cc.Deadline
	}
	budget := cc.Retries
	if req.Write {
		budget = 0
	}

	var err error
	retries := 0
	for attempt := 0; ; attempt++ {
		if attempt > 0 && deadline != 0 && s.clock.Now() >= deadline {
			err = fmt.Errorf("%w: class %v after %d attempts", ErrDeadline, c, attempt)
			break
		}
		err = s.exec(req)
		if err == nil {
			break
		}
		if req.Write {
			// Both sentinels stay visible to errors.Is: the service verdict
			// (ambiguous) and the engine cause (link, fault, ...).
			err = fmt.Errorf("%w: %w", ErrAmbiguous, err)
			break
		}
		if !retryable(err) {
			break
		}
		if attempt >= budget {
			err = fmt.Errorf("%w (budget %d): %w", ErrRetryBudget, budget, err)
			break
		}
		retries++
		// Exponential backoff between retries, charged to the service
		// clock (capped at 64 cycles): this is what arms the deadline
		// check — a request burning its budget against a down link runs
		// out of time, not just attempts.
		shift := attempt
		if shift > 6 {
			shift = 6
		}
		s.clock.Advance(sim.Cycle(1) << uint(shift))
	}
	latency := s.clock.Now() - start

	s.deg.observe(err == nil, linkRefused(err))
	out := stats.ServeOps{Retries: uint64(retries)}
	switch {
	case err == nil:
		out.Served = 1
	case errors.Is(err, ErrDeadline):
		out.Deadline = 1
	case errors.Is(err, ErrAmbiguous):
		out.Ambiguous, out.Refused = 1, 1
	default:
		out.Refused = 1
	}
	st.record(req, out, latency)
	if req.OnDone != nil {
		req.OnDone(err)
	}
	return err
}

// exec performs one engine attempt, charging one service cycle.
func (s *Server) exec(req *Request) error {
	s.clock.Advance(1)
	if req.Write {
		return s.eng.Write(req.Addr, req.Data)
	}
	return s.eng.Read(req.Addr, req.Buf)
}

// record folds one request's classified outcome into the stripe's class
// counters and, for a tagged request, its tenant's; a served request's
// latency feeds the class histogram.
func (st *stripe) record(req *Request, out stats.ServeOps, latency sim.Cycle) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.ops[req.Class].Add(out)
	if out.Served != 0 {
		st.lat[req.Class].Observe(uint64(latency))
	}
	if req.Tenant != "" {
		o := st.tops[req.Tenant]
		if o == nil {
			o = new(stats.ServeOps)
			st.tops[req.Tenant] = o
		}
		o.Add(out)
	}
}

// quiesce takes every stripe's state lock in ascending order, waiting
// out every in-flight request; unquiesce releases them.
func (s *Server) quiesce() {
	for i := range s.stripes {
		s.stripes[i].state.Lock()
	}
}

func (s *Server) unquiesce() {
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].state.Unlock()
	}
}

// WithQuiesced runs fn with every request drained and excluded: fn owns
// the engine single-threadedly for its duration. Checkpoints, crash
// recovery swaps, and oracle snapshots run here — holding every stripe
// is what makes a snapshot atomic with respect to OnDone oracle updates.
func (s *Server) WithQuiesced(fn func(eng *securemem.Concurrent) error) error {
	s.quiesce()
	defer s.unquiesce()
	return fn(s.eng)
}

// WithQuiescedSwap runs fn quiesced like WithQuiesced and atomically
// installs the engine fn returns (nil keeps the current one). This is
// the crash-recovery primitive for a server with live clients: the
// rebuilt engine and the clients' oracle rewinds must become visible in
// the same exclusion, or a request draining between them would verify
// recovered bytes against a pre-crash oracle. On error nothing is
// swapped.
func (s *Server) WithQuiescedSwap(fn func(old *securemem.Concurrent) (*securemem.Concurrent, error)) error {
	s.quiesce()
	defer s.unquiesce()
	eng, err := fn(s.eng)
	if err != nil {
		return err
	}
	if eng != nil {
		s.eng = eng
	}
	return nil
}

// Engine returns the current engine. The caller must not retain it
// across a WithQuiescedSwap; quiesced phases should prefer WithQuiesced.
func (s *Server) Engine() *securemem.Concurrent {
	s.stripes[0].state.RLock()
	defer s.stripes[0].state.RUnlock()
	return s.eng
}

// Report is a consistent copy of the service counters and latency
// histograms.
type Report struct {
	Ops     [NumClasses]stats.ServeOps
	Latency [NumClasses]stats.Histogram
	// Tenants holds the outcome counters of tenant-tagged requests,
	// keyed by Request.Tenant; summed field by field they equal the class
	// counters of the tagged traffic. Untagged requests have no entry.
	Tenants map[string]stats.ServeOps
	// Tier is the degradation tier at snapshot time; PeakTier the
	// highest tier the run ever reached.
	Tier     int
	PeakTier int
}

// Snapshot returns a consistent Report: every stripe's counters are
// locked in ascending order and merged in that order.
func (s *Server) Snapshot() Report {
	r := Report{Tier: s.Tier(), PeakTier: s.deg.peakTier(), Tenants: make(map[string]stats.ServeOps)}
	for i := range s.stripes {
		s.stripes[i].mu.Lock()
	}
	for i := range s.stripes {
		st := &s.stripes[i]
		for c := Class(0); c < NumClasses; c++ {
			r.Ops[c].Add(st.ops[c])
			r.Latency[c].Merge(&st.lat[c])
		}
		for id, o := range st.tops {
			sum := r.Tenants[id]
			sum.Add(*o)
			r.Tenants[id] = sum
		}
	}
	for i := len(s.stripes) - 1; i >= 0; i-- {
		s.stripes[i].mu.Unlock()
	}
	return r
}

// Availability returns class c's served fraction (1 when the class never
// submitted anything).
func (r *Report) Availability(c Class) float64 { return r.Ops[c].Availability() }

// OutcomeTable renders the outcome counters with availability: one row
// per class, then one "tenant:<id>" row per tagged tenant, sorted.
func (r *Report) OutcomeTable() *stats.Table {
	t := &stats.Table{Header: []string{"class", "served", "shed", "deadline", "overload", "refused", "retries", "ambiguous", "avail"}}
	row := func(name string, o stats.ServeOps) {
		t.AddRow(name,
			fmt.Sprintf("%d", o.Served), fmt.Sprintf("%d", o.Shed),
			fmt.Sprintf("%d", o.Deadline), fmt.Sprintf("%d", o.Overload),
			fmt.Sprintf("%d", o.Refused), fmt.Sprintf("%d", o.Retries),
			fmt.Sprintf("%d", o.Ambiguous), fmt.Sprintf("%.4f", o.Availability()))
	}
	for c := Class(0); c < NumClasses; c++ {
		row(c.String(), r.Ops[c])
	}
	ids := make([]string, 0, len(r.Tenants))
	for id := range r.Tenants {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		row("tenant:"+id, r.Tenants[id])
	}
	return t
}

// LatencyTable renders the per-class served-latency quantiles in service
// cycles: the p50/p99/p999 row set the availability SLOs are stated
// over.
func (r *Report) LatencyTable() *stats.Table {
	t := &stats.Table{Header: stats.QuantileHeader("class")}
	for c := Class(0); c < NumClasses; c++ {
		h := r.Latency[c]
		t.AddRow(append([]string{c.String()}, h.QuantileRow()...)...)
	}
	return t
}

// Merge folds o's counters and histograms into r (campaign aggregation).
func (r *Report) Merge(o *Report) {
	for c := Class(0); c < NumClasses; c++ {
		r.Ops[c].Add(o.Ops[c])
		r.Latency[c].Merge(&o.Latency[c])
	}
	if o.PeakTier > r.PeakTier {
		r.PeakTier = o.PeakTier
	}
	for id, t := range o.Tenants {
		if r.Tenants == nil {
			r.Tenants = make(map[string]stats.ServeOps)
		}
		sum := r.Tenants[id]
		sum.Add(t)
		r.Tenants[id] = sum
	}
}
