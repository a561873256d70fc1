package serve

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/stats"
)

func testGeo() config.Geometry {
	return config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096}
}

func testEngine(t *testing.T, pages, devPages, shards int) *securemem.Concurrent {
	t.Helper()
	eng, err := securemem.NewConcurrent(securemem.Config{
		Geometry: testGeo(), Model: securemem.ModelSalus,
		TotalPages: pages, DevicePages: devPages, Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func testServer(t *testing.T, eng *securemem.Concurrent, cfg Config) *Server {
	t.Helper()
	cfg.Engine = eng
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestHealthyTraffic runs several concurrent clients over a healthy
// engine: everything is served, the oracles stay clean, and the
// counters conserve (every submitted request has exactly one outcome).
func TestHealthyTraffic(t *testing.T) {
	eng := testEngine(t, 16, 4, 4)
	srv := testServer(t, eng, Config{})

	const nClients, ops = 6, 60
	clients := make([]*Client, nClients)
	region := 16 * 4096 / nClients
	for i := range clients {
		c, err := NewClient(ClientConfig{
			ID: i, Class: Class(i % int(NumClasses)),
			Base: securemem.HomeAddr(i * region), Len: region,
			Ops: ops, Seed: int64(1000 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *Client) { defer wg.Done(); c.Run(srv) }(c)
	}
	wg.Wait()

	rep := srv.Snapshot()
	var att uint64
	for c := Class(0); c < NumClasses; c++ {
		att += rep.Ops[c].Attempts()
	}
	if att != nClients*ops {
		t.Fatalf("outcome conservation: %d outcomes for %d requests", att, nClients*ops)
	}
	for _, c := range clients {
		if v := c.Violations(); len(v) > 0 {
			t.Fatalf("healthy run violations: %v", v)
		}
		if c.TaintedBytes() != 0 {
			t.Fatalf("healthy run left %d tainted bytes", c.TaintedBytes())
		}
		if v := c.VerifyFinal(eng.Read); len(v) > 0 {
			t.Fatalf("final sweep: %v", v)
		}
	}
	// Healthy bulk/batch may see token-bucket overloads but never shed.
	for c := Class(0); c < NumClasses; c++ {
		if rep.Ops[c].Shed != 0 {
			t.Fatalf("healthy run shed class %v", c)
		}
	}
	if rep.Ops[Interactive].Served == 0 {
		t.Fatal("interactive served nothing")
	}
	if rep.Latency[Interactive].Count() != rep.Ops[Interactive].Served {
		t.Fatal("latency histogram counts != served count")
	}
}

// TestTokenBucketOverloadTyped pins the admission fast-fail: an empty
// bucket refuses with ErrOverload before touching the engine.
func TestTokenBucketOverloadTyped(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	cfg := Config{}
	cfg.Classes[Bulk] = ClassConfig{Rate: 1e-9, Burst: 1, Queue: 4, Retries: 1}
	srv := testServer(t, eng, cfg)

	buf := make([]byte, 8)
	if err := srv.Do(&Request{Class: Bulk, Addr: 0, Buf: buf}); err != nil {
		t.Fatalf("first bulk request: %v", err)
	}
	err := srv.Do(&Request{Class: Bulk, Addr: 0, Buf: buf, OnDone: func(error) {
		t.Error("OnDone ran for an admission-refused request")
	}})
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("second bulk request: %v, want ErrOverload", err)
	}
	rep := srv.Snapshot()
	if rep.Ops[Bulk].Overload != 1 || rep.Ops[Bulk].Served != 1 {
		t.Fatalf("bulk counters: %+v", rep.Ops[Bulk])
	}
}

// TestQueueBoundTyped pins the bounded-queue fast-fail: with the class's
// one slot held by an in-flight request, the next request fails
// ErrOverload instead of buffering.
func TestQueueBoundTyped(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	cfg := Config{}
	cfg.Classes[Batch] = ClassConfig{Queue: 1, Retries: 1}
	srv := testServer(t, eng, cfg)

	hold := make(chan struct{})
	held := make(chan struct{})
	go func() {
		buf := make([]byte, 8)
		srv.Do(&Request{Class: Batch, Addr: 0, Buf: buf, OnDone: func(error) {
			close(held)
			<-hold // keep the slot occupied
		}})
	}()
	<-held
	err := srv.Do(&Request{Class: Batch, Addr: 0, Buf: make([]byte, 8)})
	close(hold)
	if !errors.Is(err, ErrOverload) {
		t.Fatalf("request against a full queue: %v, want ErrOverload", err)
	}
}

// TestDeadlineTyped pins deadline enforcement: a read retrying against a
// down link runs out of service-clock budget and fails ErrDeadline, not
// a transport error.
func TestDeadlineTyped(t *testing.T) {
	eng := testEngine(t, 8, 2, 1)
	manual := link.NewManual()
	eng.AttachLink(link.New(manual, link.Config{Threshold: 1000, Cooldown: 1}), nil, 4)
	cfg := Config{}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4, Retries: 100, Deadline: 3}
	srv := testServer(t, eng, cfg)

	manual.Set(link.StateDown)
	var cbErr error
	err := srv.Do(&Request{
		Class: Interactive, Addr: 6 * 4096, Buf: make([]byte, 8),
		OnDone: func(e error) { cbErr = e },
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("read past deadline: %v, want ErrDeadline", err)
	}
	if !errors.Is(cbErr, ErrDeadline) {
		t.Fatalf("OnDone got %v, want the ErrDeadline outcome", cbErr)
	}
	rep := srv.Snapshot()
	if rep.Ops[Interactive].Deadline != 1 {
		t.Fatalf("deadline counter: %+v", rep.Ops[Interactive])
	}
	if rep.Ops[Interactive].Retries == 0 {
		t.Fatal("deadline loop recorded no retries")
	}
}

// TestDegradationTiers drives the ladder end to end: link pressure sheds
// bulk first, then batch, never interactive; recovery restores service
// in reverse order.
func TestDegradationTiers(t *testing.T) {
	eng := testEngine(t, 8, 2, 1)
	manual := link.NewManual()
	eng.AttachLink(link.New(manual, link.Config{Threshold: 1000, Cooldown: 1}), nil, 4)
	cfg := Config{ShedAfter: 4, RestoreAfter: 2}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4}
	cfg.Classes[Batch] = ClassConfig{Queue: 4}
	cfg.Classes[Bulk] = ClassConfig{Queue: 4}
	srv := testServer(t, eng, cfg)

	miss := func(class Class) error {
		return srv.Do(&Request{Class: class, Addr: 6 * 4096, Buf: make([]byte, 8)})
	}
	manual.Set(link.StateDown)
	for i := 0; i < 4; i++ {
		if err := miss(Interactive); !errors.Is(err, ErrRetryBudget) {
			t.Fatalf("interactive miss %d under outage: %v, want ErrRetryBudget", i, err)
		}
	}
	if srv.Tier() != 1 {
		t.Fatalf("tier after %d link refusals = %d, want 1", 4, srv.Tier())
	}
	if err := miss(Bulk); !errors.Is(err, ErrShed) {
		t.Fatalf("bulk at tier 1: %v, want ErrShed", err)
	}
	if err := miss(Batch); errors.Is(err, ErrShed) {
		t.Fatal("batch shed at tier 1")
	}
	for i := 0; i < 4; i++ {
		miss(Interactive)
	}
	if srv.Tier() != 2 {
		t.Fatalf("tier after sustained refusals = %d, want 2", srv.Tier())
	}
	if err := miss(Batch); !errors.Is(err, ErrShed) {
		t.Fatalf("batch at tier 2: %v, want ErrShed", err)
	}
	// Interactive is never shed — and device hits keep serving even now.
	if err := srv.Do(&Request{Class: Interactive, Addr: 0, Data: []byte("hit"), Write: true}); err != nil {
		// Address 0 may not be resident yet; a typed refusal is fine,
		// shedding is not.
		if errors.Is(err, ErrShed) {
			t.Fatal("interactive shed")
		}
	}

	manual.Set(link.StateUp)
	for i := 0; i < 16 && srv.Tier() > 0; i++ {
		if err := miss(Interactive); err != nil {
			t.Fatalf("read after recovery: %v", err)
		}
	}
	if srv.Tier() != 0 {
		t.Fatalf("tier after recovery = %d, want 0", srv.Tier())
	}
	if err := miss(Bulk); err != nil {
		t.Fatalf("bulk after recovery: %v", err)
	}
	rep := srv.Snapshot()
	if rep.PeakTier != 2 {
		t.Fatalf("PeakTier = %d, want 2", rep.PeakTier)
	}
	if rep.Ops[Interactive].Shed != 0 {
		t.Fatal("interactive recorded sheds")
	}
}

// TestCheckpointCrashSwap pins the crash-recovery composition the chaos
// campaign relies on: quiesced checkpoint + oracle snapshot, traffic,
// crash to the checkpoint via WithQuiescedSwap (Recover + ConcurrentFrom
// and the oracle restore in one exclusion), then more traffic and a clean
// final sweep.
func TestCheckpointCrashSwap(t *testing.T) {
	eng := testEngine(t, 8, 4, 2)
	srv := testServer(t, eng, Config{})
	store := crash.NewMemStore()
	j := crash.NewJournal(store)

	c, err := NewClient(ClientConfig{ID: 0, Class: Interactive, Base: 0, Len: 2 * 4096, Ops: 40, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	c.Run(srv)

	var root securemem.TrustedRoot
	var snap ClientState
	if err := srv.WithQuiesced(func(e *securemem.Concurrent) error {
		var err error
		root, err = e.Checkpoint(j)
		if err != nil {
			return err
		}
		snap = c.Snapshot()
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	c.Run(srv) // post-checkpoint traffic that the crash will erase

	if err := srv.WithQuiescedSwap(func(*securemem.Concurrent) (*securemem.Concurrent, error) {
		sys, err := securemem.Recover(securemem.Config{
			Geometry: testGeo(), Model: securemem.ModelSalus, TotalPages: 8, DevicePages: 4,
		}, store.Bytes(), root)
		if err != nil {
			return nil, err
		}
		c.Restore(snap)
		return securemem.ConcurrentFrom(sys, 2), nil
	}); err != nil {
		t.Fatal(err)
	}

	c.Run(srv) // post-crash traffic against the recovered engine

	if v := c.Violations(); len(v) > 0 {
		t.Fatalf("violations across crash: %v", v)
	}
	if v := c.VerifyFinal(srv.Engine().Read); len(v) > 0 {
		t.Fatalf("final sweep across crash: %v", v)
	}
}

// TestInvalidRequests covers the guard rails.
func TestInvalidRequests(t *testing.T) {
	eng := testEngine(t, 4, 2, 1)
	srv := testServer(t, eng, Config{})
	if err := srv.Do(&Request{Class: Class(9)}); err == nil {
		t.Fatal("invalid class accepted")
	}
	srv.Close()
	if err := srv.Do(&Request{Class: Interactive, Buf: make([]byte, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("request after Close: %v, want ErrClosed", err)
	}
	if _, err := NewClient(ClientConfig{Len: 0}); err == nil {
		t.Fatal("zero-length client region accepted")
	}
	if _, err := NewClient(ClientConfig{Len: 8, Class: Class(9)}); err == nil {
		t.Fatal("invalid client class accepted")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without engine accepted")
	}
}

// faultFirstN faults the first n injector consultations with transient
// faults, then passes everything.
type faultFirstN struct{ n *int }

func (f faultFirstN) Inject(fault.Access) *fault.Fault {
	if *f.n > 0 {
		*f.n--
		return &fault.Fault{Kind: fault.Transient}
	}
	return nil
}

var _ fault.Injector = faultFirstN{}

// zeroEngineRetries is the engine-level policy service mode uses: the
// serve layer owns the retry budget, so the engine gets exactly one
// attempt per request attempt.
func zeroEngineRetries() securemem.RetryPolicy {
	return securemem.RetryPolicy{MaxRetries: 0, BaseBackoff: 1, MaxBackoff: 1}
}

// TestTenantCountersConserveClassCounters pins the per-tenant outcome
// counters: with all traffic tagged, the tenants' ServeOps summed field
// by field equal the classes' (every request lands in exactly one
// tenant and one class, classified once); an untagged request moves the
// class counters but creates no tenant entry; and Merge folds entries by
// tenant.
func TestTenantCountersConserveClassCounters(t *testing.T) {
	eng := testEngine(t, 8, 2, 2)
	n := 5 // transient faults: read retries and ambiguous writes
	eng.AttachFaults(faultFirstN{&n}, zeroEngineRetries(), nil)
	cfg := Config{}
	cfg.Classes[Interactive] = ClassConfig{Queue: 4, Retries: 2}
	cfg.Classes[Bulk] = ClassConfig{Rate: 1e-9, Burst: 2, Queue: 4, Retries: 1}
	srv := testServer(t, eng, cfg)

	tenants := []string{"a", "b", "c"}
	buf := make([]byte, 8)
	for i := 0; i < 36; i++ {
		req := &Request{Class: Class(i / 3 % int(NumClasses)), Addr: securemem.HomeAddr(64 * i), Tenant: tenants[i%3]}
		if i%4 == 0 {
			req.Write, req.Data = true, []byte{1, 2, 3, 4}
		} else {
			req.Buf = buf
		}
		_ = srv.Do(req) // every outcome is counted; the sums are the test
	}
	rep := srv.Snapshot()
	var byClass, byTenant stats.ServeOps
	for c := Class(0); c < NumClasses; c++ {
		byClass.Add(rep.Ops[c])
	}
	for _, o := range rep.Tenants {
		byTenant.Add(o)
	}
	if byTenant != byClass || byClass.Attempts() != 36 {
		t.Fatalf("tenant sums %+v != class sums %+v over 36 requests", byTenant, byClass)
	}
	if byClass.Served == 0 || byClass.Overload == 0 || byClass.Retries == 0 || byClass.Ambiguous == 0 {
		t.Fatalf("outcome mix too narrow to test conservation: %+v", byClass)
	}
	if len(rep.Tenants) != len(tenants) {
		t.Fatalf("tenant entries %v, want %v", rep.Tenants, tenants)
	}

	if err := srv.Do(&Request{Class: Interactive, Buf: buf}); err != nil {
		t.Fatalf("untagged request: %v", err)
	}
	after := srv.Snapshot()
	if len(after.Tenants) != len(tenants) || after.Ops[Interactive].Served != rep.Ops[Interactive].Served+1 {
		t.Fatalf("untagged request: tenants %v, interactive %+v", after.Tenants, after.Ops[Interactive])
	}
	table := after.OutcomeTable().String()
	for _, want := range []string{"interactive", "tenant:a", "tenant:c"} {
		if !strings.Contains(table, want) {
			t.Fatalf("outcome table missing %q:\n%s", want, table)
		}
	}

	a := after.Tenants["a"]
	other := Report{Tenants: map[string]stats.ServeOps{"a": {Served: 3}, "z": {Shed: 1}}}
	after.Merge(&other)
	if len(after.Tenants) != 4 || after.Tenants["z"] != (stats.ServeOps{Shed: 1}) {
		t.Fatalf("merge entries: %v", after.Tenants)
	}
	if got := after.Tenants["a"]; got.Served != a.Served+3 || got.Attempts() != a.Attempts()+3 {
		t.Fatalf("merge did not fold tenant a: %+v, was %+v", got, a)
	}
	var empty Report
	empty.Merge(&other)
	if empty.Tenants["z"].Shed != 1 {
		t.Fatalf("merge into an empty report: %v", empty.Tenants)
	}
}
