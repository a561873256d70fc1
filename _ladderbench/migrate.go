package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/migrate"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

const (
	migrant       = "migrant"
	migrantPages  = 1024 // 4 MiB tenant
	migrantFrames = 256
	migrantBytes  = migrantPages * pageSize
	offeredRate   = 2000 // open-loop requests per second, far below serve capacity
	// migrateEvery is the migration cadence: migration k starts at
	// start + k*migrateEvery, or as soon as migration k-1 ends if that
	// is later. It keeps the quiesced share of the run near a twentieth,
	// so the median request sees no cutover and the 99th percentile
	// does, even on a host twice as slow; back to back, about half the
	// run is quiesced and the median falls on the edge between the two.
	migrateEvery  = 2 * time.Second
	migrateSetups = 3
)

// newHost builds one pool holding only the migrant slice. Every host
// uses the same default master keys, so the tenant's ciphertext moves
// between them verbatim.
func newHost() (*tenant.Pool, *tenant.Tenant, error) {
	p, err := tenant.NewPool(tenant.Config{
		Geometry: config.Default().Geometry,
		Slices:   []tenant.Slice{{ID: migrant, BasePage: 0, Pages: migrantPages, Frames: migrantFrames}},
	})
	if err != nil {
		return nil, nil, err
	}
	t, err := p.Tenant(migrant)
	return p, t, err
}

// timedSwap is the Swapper the migration cuts over through: it forwards
// to the serve.Server and times how long the final round holds the
// service quiesced. Inside the same exclusion it digests the new
// engine, before any request can reach it.
type timedSwap struct {
	srv    *serve.Server
	pause  time.Duration
	digest [32]byte
	spans  *spanLog // nil: tracing off
	parent int64
	op     int64
}

func (s *timedSwap) WithQuiescedSwap(fn func(old *securemem.Concurrent) (*securemem.Concurrent, error)) error {
	var outer int
	if s.spans != nil {
		outer = s.spans.begin("serve.Server.WithQuiescedSwap", s.parent, s.op)
		defer s.spans.end(outer)
	}
	return s.srv.WithQuiescedSwap(func(old *securemem.Concurrent) (*securemem.Concurrent, error) {
		var inner int
		if s.spans != nil {
			inner = s.spans.begin("migrate.cutover", s.spans.id(outer), s.op)
		}
		t0 := time.Now()
		eng, err := fn(old)
		s.pause = time.Since(t0)
		if s.spans != nil {
			s.spans.end(inner)
		}
		if err == nil && eng != nil {
			s.digest = eng.StateDigest()
		}
		return eng, err
	})
}

// openLoop sends interactive requests at a fixed rate from one
// goroutine. Request i is due at start + i/rate; its latency runs from
// that due time, so a stall delays every request queued behind it.
type openLoop struct {
	srv    *serve.Server
	st     *stream
	shadow []byte
	lat    *latencies
	spans  *spanLog // nil: tracing off
	lags   []float64
	last   time.Time // completion of the latest request

	ops, fails, mismatches int64
}

func (g *openLoop) run(start, deadline time.Time) {
	// The generator sleeps on its own OS thread: nanosleep wakes within
	// tens of microseconds, where a runtime timer on an otherwise idle
	// process can oversleep by a millisecond, which would show up as
	// latency of every request.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	period := time.Second / offeredRate
	buf := make([]byte, opBytes)
	req := serve.Request{}
	for i := int64(0); ; i++ {
		due := start.Add(time.Duration(i) * period)
		if !due.Before(deadline) {
			return
		}
		sleepUntil(due)
		o := &g.st.ops[int(i)%len(g.st.ops)]
		g.lags = append(g.lags, float64(time.Since(due).Nanoseconds())/1e6)
		var call int
		if g.spans != nil {
			call = g.spans.begin("serve.Server.Do", 0, i)
		}
		req = serve.Request{Class: serve.Interactive, Addr: securemem.HomeAddr(o.addr), Write: o.write, Tenant: migrant}
		if o.write {
			req.Data = g.st.payload[o.payload : o.payload+opBytes]
		} else {
			req.Buf = buf
		}
		err := g.srv.Do(&req)
		g.last = time.Now()
		g.lat.add(due, g.last.Sub(due))
		if g.spans != nil {
			g.spans.end(call)
		}
		g.ops++
		switch {
		case err != nil:
			g.fails++
		case o.write:
			copy(g.shadow[o.addr:], req.Data)
		case !bytes.Equal(buf, g.shadow[o.addr:o.addr+opBytes]):
			g.mismatches++
		}
	}
}

// migrationSample is one completed migration.
type migrationSample struct {
	dur, pause time.Duration
	ops        stats.MigrateOps
	traced     bool
}

type liveHost struct {
	pool *tenant.Pool
	t    *tenant.Tenant
}

type migrateSetup struct {
	src, next liveHost
	srv       *serve.Server
	gen       *openLoop
}

func prepareMigrate(seed int64) (*migrateSetup, error) {
	pool, t, err := newHost()
	if err != nil {
		return nil, err
	}
	content := fillBytes(subSeed(seed, "migrate-live/content", 0), migrantBytes)
	for p := 0; p < migrantPages; p++ {
		if err := t.Write(securemem.HomeAddr(p*pageSize), content[p*pageSize:(p+1)*pageSize]); err != nil {
			return nil, fmt.Errorf("fill page %d: %w", p, err)
		}
	}
	np, nt, err := newHost()
	if err != nil {
		return nil, err
	}
	srv, err := serve.New(serve.Config{Engine: t.Engine()})
	if err != nil {
		return nil, err
	}
	st := genStream(subSeed(seed, "migrate-live/stream", 0),
		streamSpec{pages: pageRange(0, migrantPages), writeOneIn: 4, n: 1 << 15})
	return &migrateSetup{
		src: liveHost{pool, t}, next: liveHost{np, nt}, srv: srv,
		gen: &openLoop{srv: srv, st: st, shadow: content},
	}, nil
}

func migrateNonce(seed int64, k int) [32]byte {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(k))
	return sha256.Sum256(append([]byte("ladderbench/migrate-live"), b[:]...))
}

// runMigrateLive migrates the tenant back to back, each time to a fresh
// destination host built outside the timed migration, while the open
// loop keeps serving it. A traced run measures the first half untraced
// and the second half traced.
func runMigrateLive(cfg runConfig) (*outcome, error) {
	s, setupS, err := medianSetup(migrateSetups, func() (*migrateSetup, error) { return prepareMigrate(cfg.seed) })
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	dur := cfg.duration(1)
	start := time.Now()
	deadline := start.Add(dur)
	tracedFrom := deadline // never, unless tracing
	var migSpans *spanLog
	if cfg.trace {
		tracedFrom = start.Add(dur / 2)
		migSpans = newSpanLog(start, 0)
		s.gen.spans = newSpanLog(start, 1)
		out.spans = []*spanLog{migSpans, s.gen.spans}
	}
	// One window for the whole run: its few cutovers are what the tail
	// is made of, and a quantile over all of them is steadier than a
	// median over one window per cutover. The reservoir holds every
	// request of a run shorter than 16 s.
	s.gen.lat = newLatencies(start, dur, 1, uint64(subSeed(cfg.seed, "reservoir", 0)))
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		s.gen.run(start, deadline)
	}()

	rt0 := readRuntime()
	var samples []migrationSample
	var relocations uint64
	sw := &timedSwap{srv: s.srv}
	cur := s.src
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * migrateEvery)
		if !due.Before(deadline) {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		traced := cfg.trace && !time.Now().Before(tracedFrom)
		var root int
		if traced {
			root = migSpans.begin("migrate.Run", 0, int64(k))
			sw.spans, sw.parent, sw.op = migSpans, migSpans.id(root), int64(k)
		} else {
			sw.spans = nil
		}
		t0 := time.Now()
		ops, err := migrate.Run(migrate.Config{
			SourcePool: cur.pool, Source: cur.t, DestPool: s.next.pool,
			Nonce: migrateNonce(cfg.seed, k), Swap: sw,
		})
		d := time.Since(t0)
		if traced {
			migSpans.end(root)
		}
		out.attempted++
		if err != nil {
			out.failed++
			out.problem("migration %d: %v", k, err)
			break
		}
		samples = append(samples, migrationSample{dur: d, pause: sw.pause, ops: ops, traced: traced})
		// The source is idle after cutover: its digest is the state the
		// destination must have started serving from.
		if cur.t.StateDigest() != sw.digest {
			out.failed++
			out.problem("migration %d: destination digest differs from the source's", k)
		}
		relocations += cur.t.Engine().Stats().RelocationReEncryptions
		if err := cur.pool.DestroyTenant(migrant); err != nil {
			out.problem("retire source after migration %d: %v", k, err)
		}
		cur = s.next
		pool, t, err := newHost()
		if err != nil {
			out.problem("build destination host: %v", err)
			break
		}
		s.next = liveHost{pool, t}
	}
	<-genDone
	rt1 := readRuntime()
	g := s.gen
	out.attempted += g.ops
	out.failed += g.fails + g.mismatches
	if len(samples) == 0 {
		out.problem("no migration completed")
	}
	relocations += cur.t.Engine().Stats().RelocationReEncryptions
	if relocations != 0 {
		out.problem("securemem.relocation_reenc = %d, want 0 under Salus", relocations)
	}
	rep := s.srv.Snapshot()
	checkServeReport(out, rep)
	// Re-verify the whole tenant on the final host against the shadow.
	if err := verifyAll(cur.t, g.shadow); err != nil {
		out.failed++
		out.problem("final state: %v", err)
	}

	var durs, pauses, tracedDurs []float64
	for _, sm := range samples {
		if sm.traced {
			tracedDurs = append(tracedDurs, sm.dur.Seconds())
			continue
		}
		durs = append(durs, sm.dur.Seconds())
		pauses = append(pauses, sm.pause.Seconds())
	}
	fmt.Printf("# migrate-live: %d migrations (median %.1f ms, cutover pause %.1f ms), %d open-loop requests at %d/s\n",
		len(samples), median(durs)*1e3, median(pauses)*1e3, g.ops, offeredRate)
	if !cfg.trace {
		// Every window holds exactly its due requests, so throughput is
		// the achieved rate: completions over the time they took.
		sum := summarize([]*latencies{g.lat}, 1)
		out.metrics["ops_per_s"] = float64(g.ops) / g.last.Sub(start).Seconds()
		out.metrics["op_p50_us"] = sum.p50us
		out.metrics["op_p99_us"] = sum.p99us
		out.metrics["success_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}

	m := out.metrics
	var rounds, amp, chunks, share []float64
	var retries uint64
	for _, sm := range samples {
		rounds = append(rounds, float64(sm.ops.Rounds))
		amp = append(amp, float64(sm.ops.BytesStreamed)/migrantBytes)
		chunks = append(chunks, float64(sm.ops.ChunksSent)/(migrantBytes/(1<<20)))
		share = append(share, sm.pause.Seconds()/sm.dur.Seconds())
		retries += sm.ops.Retries
	}
	m["migrate.migrations"] = float64(len(samples))
	m["migrate.rounds"] = median(rounds)
	m["migrate.retries"] = float64(retries)
	m["migrate.stream_amplification"] = median(amp)
	m["migrate.chunks_sent_per_mib"] = median(chunks)
	m["migrate.final_round_share"] = median(share)
	if md := median(durs); md > 0 {
		m["migrate.mb_per_s"] = migrantBytes / float64(1<<20) / md
		m["migrate.cutover_pause_ms"] = median(pauses) * 1e3
		if len(tracedDurs) > 0 {
			m["trace.overhead_pct"] = (median(tracedDurs)/md - 1) * 100
		}
	}
	m["securemem.relocation_reenc"] = float64(relocations)
	m["loadgen.offered_per_s"] = float64(g.ops) / dur.Seconds()
	m["loadgen.lag_p99_ms"] = quantile(g.lags, 0.99)
	serveMetrics(m, rep)
	runtimeMetrics(m, rt0, rt1, g.ops)
	fillCommon(out)
	return out, nil
}

// verifyAll reads the tenant page by page and compares it with want.
func verifyAll(t *tenant.Tenant, want []byte) error {
	buf := make([]byte, pageSize)
	for p := 0; p < migrantPages; p++ {
		off := p * pageSize
		if err := t.Read(t.Base()+securemem.HomeAddr(off), buf); err != nil {
			return fmt.Errorf("read page %d: %w", p, err)
		}
		if !bytes.Equal(buf, want[off:off+pageSize]) {
			return fmt.Errorf("page %d differs from the client shadow", p)
		}
	}
	return nil
}

// sleepUntil blocks the calling OS thread until t.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again for what is left
	}
}
