package secsim

import (
	"fmt"
	"testing"

	"github.com/salus-sim/salus/internal/cache"
	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/cxlmem"
	"github.com/salus-sim/salus/internal/dram"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/stats"
)

func testCtx() (*Ctx, *stats.Run) {
	run := &stats.Run{}
	eng := sim.NewEngine()
	cfg := config.Default()
	cfg.Memory.DeviceChannels = 4
	device := dram.New(eng, 4, 32, 100, 256, &run.Traffic)
	cxl := cxlmem.New(eng, 32, 1, 300, &run.Traffic)
	return &Ctx{Eng: eng, Cfg: cfg, Device: device, CXL: cxl, Ops: &run.Ops}, run
}

func drain(ctx *Ctx) { ctx.Eng.Run(0) }

func TestChanLocal(t *testing.T) {
	ctx, _ := testCtx()
	// 4 channels, 256 B chunks: chunk i -> channel i%4, local dense.
	cases := []struct {
		addr    uint64
		channel int
		local   uint64
	}{
		{0, 0, 0},
		{100, 0, 100},
		{256, 1, 0},
		{256 + 5, 1, 5},
		{1024, 0, 256},
		{1024 + 256, 1, 256},
	}
	for _, c := range cases {
		ch, local := ctx.chanLocal(DevAddr(c.addr))
		if ch != c.channel || local != c.local {
			t.Errorf("chanLocal(%d) = (%d,%d), want (%d,%d)", c.addr, ch, local, c.channel, c.local)
		}
	}
}

func TestJoin(t *testing.T) {
	fired := 0
	j := join(3, func() { fired++ })
	j()
	j()
	if fired != 0 {
		t.Fatal("join fired early")
	}
	j()
	if fired != 1 {
		t.Fatalf("join fired %d times, want 1", fired)
	}
	// n == 0 fires immediately.
	immediate := 0
	join(0, func() { immediate++ })
	if immediate != 1 {
		t.Error("join(0) did not fire immediately")
	}
}

func TestMetaCacheFetchMissThenHit(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 2, 4, 16, 0, stats.Counter)
	var hits []bool
	ctx.Eng.At(0, func() {
		mc.Fetch(0, 0, func(hit bool) {
			hits = append(hits, hit)
			mc.Fetch(0, 0, func(hit bool) { hits = append(hits, hit) })
		})
	})
	drain(ctx)
	if len(hits) != 2 || hits[0] || !hits[1] {
		t.Fatalf("hits = %v, want [false true]", hits)
	}
	if got := run.Traffic.Bytes(stats.Device, stats.Counter); got != 32 {
		t.Errorf("counter traffic = %d, want 32", got)
	}
}

func TestMetaCacheMSHRMerge(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 2, 4, 16, 0, stats.Counter)
	done := 0
	ctx.Eng.At(0, func() {
		mc.Fetch(0, 0, func(bool) { done++ })
		mc.Fetch(0, 0, func(bool) { done++ }) // merges, no second read
	})
	drain(ctx)
	if done != 2 {
		t.Fatalf("done = %d, want 2", done)
	}
	if got := run.Traffic.Bytes(stats.Device, stats.Counter); got != 32 {
		t.Errorf("traffic = %d, want 32 (merged miss)", got)
	}
}

func TestMetaCacheCXLSide(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 2, 4, 16, -1, stats.MAC)
	ctx.Eng.At(0, func() { mc.Fetch(64, 0, func(bool) {}) })
	drain(ctx)
	if got := run.Traffic.Bytes(stats.CXL, stats.MAC); got != 32 {
		t.Errorf("CXL MAC traffic = %d, want 32", got)
	}
	if run.Traffic.TierTotal(stats.Device) != 0 {
		t.Error("CXL-side cache touched device memory")
	}
}

func TestMetaCacheDirtyWriteback(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 1, 4, 16, 0, stats.MAC) // 1 KiB = 32 lines
	ctx.Eng.At(0, func() {
		for i := 0; i < 40; i++ {
			mc.Install(uint64(i*32), 0) // install dirty
		}
	})
	drain(ctx)
	// 40 installs into 32 lines: at least 8 dirty writebacks.
	if got := run.Traffic.Bytes(stats.Device, stats.MAC); got < 8*32 {
		t.Errorf("writeback traffic = %d, want >= 256", got)
	}
}

func TestMetaCacheInvalidateNoWriteback(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 1, 4, 16, 0, stats.MAC)
	ctx.Eng.At(0, func() {
		mc.Install(0, 0)
		mc.Invalidate(0)
	})
	drain(ctx)
	if got := run.Traffic.TierTotal(stats.Device); got != 0 {
		t.Errorf("invalidate produced %d bytes of traffic", got)
	}
}

func TestBMTRegionLevels(t *testing.T) {
	ctx, _ := testCtx()
	mc := newMetaCache(ctx, 8, 4, 16, 0, stats.BMT)
	cases := map[int]int{1: 0, 8: 1, 64: 2, 65: 3, 4096: 4}
	for leaves, want := range cases {
		r := newBMTRegion(mc, leaves, 0)
		if got := r.Levels(); got != want {
			t.Errorf("Levels(%d leaves) = %d, want %d", leaves, got, want)
		}
	}
}

func TestBMTWalkColdThenWarm(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 8, 4, 16, 0, stats.BMT)
	r := newBMTRegion(mc, 512, 0) // 3 levels: 64, 8, 1
	doneAt := []sim.Cycle{}
	ctx.Eng.At(0, func() {
		r.Verify(0, func() {
			doneAt = append(doneAt, ctx.Eng.Now())
			// Second verify of the same leaf: all ancestors cached,
			// first lookup hits, walk ends immediately.
			r.Verify(0, func() { doneAt = append(doneAt, ctx.Eng.Now()) })
		})
	})
	drain(ctx)
	if len(doneAt) != 2 {
		t.Fatalf("verifies completed: %d", len(doneAt))
	}
	cold := run.Traffic.Bytes(stats.Device, stats.BMT)
	if cold != 3*32 {
		t.Errorf("cold walk read %d bytes, want 96 (3 levels)", cold)
	}
	if doneAt[1] != doneAt[0] {
		t.Errorf("warm verify took extra time: %d vs %d", doneAt[1], doneAt[0])
	}
}

func TestBMTUpdateMarksDirtyPath(t *testing.T) {
	ctx, run := testCtx()
	mc := newMetaCache(ctx, 8, 4, 16, 0, stats.BMT)
	r := newBMTRegion(mc, 512, 0)
	ctx.Eng.At(0, func() { r.Update(5, func() {}) })
	drain(ctx)
	// Update walks to the root even past cached nodes and dirties them;
	// reads happened for the cold fills.
	if got := run.Traffic.Bytes(stats.Device, stats.BMT); got != 96 {
		t.Errorf("update read %d bytes, want 96", got)
	}
	flushed := mc.c.FlushDirty()
	if len(flushed) != 3 {
		t.Errorf("dirty path nodes = %d, want 3", len(flushed))
	}
}

func TestNoneEngineIsFree(t *testing.T) {
	n := NewNone()
	calls := 0
	n.OnRead(0, 0, func() { calls++ })
	n.OnWrite(0, 0, func() { calls++ })
	n.OnMigrateIn(0, 0, func() { calls++ })
	n.OnEvict(0, 0, 0, 0, func() { calls++ })
	if calls != 4 {
		t.Fatalf("calls = %d, want 4 (all immediate)", calls)
	}
	if n.FineGrainedWriteback() {
		t.Error("none engine claims fine-grained writeback")
	}
	if n.Name() != "none" {
		t.Error("name wrong")
	}
}

func TestBaselineMigrateTrafficShape(t *testing.T) {
	ctx, run := testCtx()
	b := NewBaseline(ctx, 1<<20, 1<<22)
	doneFired := false
	ctx.Eng.At(0, func() { b.OnMigrateIn(5, 0, func() { doneFired = true }) })
	drain(ctx)
	if !doneFired {
		t.Fatal("migration security never completed")
	}
	// CXL side must have read counters (4 sectors = 128 B) and MACs
	// (32 sectors = 1 KiB), plus BMT verify reads.
	if got := run.Traffic.Bytes(stats.CXL, stats.Counter); got != 128 {
		t.Errorf("CXL counter bytes = %d, want 128", got)
	}
	if got := run.Traffic.Bytes(stats.CXL, stats.MAC); got != 1024 {
		t.Errorf("CXL MAC bytes = %d, want 1024", got)
	}
	if run.Traffic.Bytes(stats.CXL, stats.BMT) == 0 {
		t.Error("no CXL BMT traffic on cold migration")
	}
	if run.Ops.ReEncryptions != 128 {
		t.Errorf("re-encryptions = %d, want 128 (every sector)", run.Ops.ReEncryptions)
	}
}

func TestBaselineEvictTrafficShape(t *testing.T) {
	ctx, run := testCtx()
	b := NewBaseline(ctx, 1<<20, 1<<22)
	fired := false
	ctx.Eng.At(0, func() { b.OnEvict(5, 0, 0, 0xFFFF, func() { fired = true }) })
	drain(ctx)
	if !fired {
		t.Fatal("eviction security never completed")
	}
	// Device side reads counters + MACs for the whole page even though
	// nothing is dirty (location-coupled metadata + no dirty bit).
	if run.Traffic.Bytes(stats.Device, stats.Counter) == 0 {
		t.Error("no device counter reads on eviction")
	}
	if run.Traffic.Bytes(stats.Device, stats.MAC) == 0 {
		t.Error("no device MAC reads on eviction")
	}
	if run.Ops.ReEncryptions != 128 {
		t.Errorf("re-encryptions = %d, want 128", run.Ops.ReEncryptions)
	}
}

func TestSalusMigrateIsFree(t *testing.T) {
	ctx, run := testCtx()
	s := NewSalus(ctx, 1<<20, 1<<22, 256)
	fired := false
	ctx.Eng.At(0, func() { s.OnMigrateIn(5, 3, func() { fired = true }) })
	drain(ctx)
	if !fired {
		t.Fatal("migration never completed")
	}
	if got := run.Traffic.Total(); got != 0 {
		t.Errorf("salus migration moved %d metadata bytes, want 0", got)
	}
	if run.Ops.ReEncryptions != 0 {
		t.Errorf("salus migration re-encrypted %d sectors", run.Ops.ReEncryptions)
	}
}

func TestSalusFirstAccessLazyFetch(t *testing.T) {
	ctx, run := testCtx()
	s := NewSalus(ctx, 1<<20, 1<<22, 256)
	reads := 0
	ctx.Eng.At(0, func() {
		s.OnMigrateIn(5, 0, func() {})
		s.OnRead(5*4096, 0, func() { reads++ })
	})
	drain(ctx)
	if reads != 1 {
		t.Fatal("read never completed")
	}
	// Exactly one 32 B MAC sector over CXL; no counter traffic on the link.
	if got := run.Traffic.Bytes(stats.CXL, stats.MAC); got != 32 {
		t.Errorf("CXL MAC bytes = %d, want 32", got)
	}
	if got := run.Traffic.Bytes(stats.CXL, stats.Counter); got != 0 {
		t.Errorf("CXL counter bytes = %d, want 0 (embedded major)", got)
	}
	if run.Ops.MACFetchesLazy != 1 {
		t.Errorf("lazy fetches = %d, want 1", run.Ops.MACFetchesLazy)
	}
}

func TestSalusSecondAccessNoCXLTraffic(t *testing.T) {
	ctx, run := testCtx()
	s := NewSalus(ctx, 1<<20, 1<<22, 256)
	seq := 0
	ctx.Eng.At(0, func() {
		s.OnMigrateIn(5, 0, func() {})
		s.OnRead(5*4096, 0, func() {
			seq++
			before := run.Traffic.TierTotal(stats.CXL)
			s.OnRead(5*4096, 0, func() {
				seq++
				if run.Traffic.TierTotal(stats.CXL) != before {
					t.Error("second access to the same block crossed the link")
				}
			})
		})
	})
	drain(ctx)
	if seq != 2 {
		t.Fatalf("reads completed: %d", seq)
	}
}

func TestSalusEvictOnlyDirtyChunks(t *testing.T) {
	ctx, run := testCtx()
	s := NewSalus(ctx, 1<<20, 1<<22, 256)
	fired := false
	// One dirty chunk out of 16.
	ctx.Eng.At(0, func() { s.OnEvict(5, 0, 0b1, 0b11, func() { fired = true }) })
	drain(ctx)
	if !fired {
		t.Fatal("eviction never completed")
	}
	// 2 MAC sectors (the chunk's 2 blocks) cross the link.
	if got := run.Traffic.Bytes(stats.CXL, stats.MAC); got != 64 {
		t.Errorf("CXL MAC bytes = %d, want 64", got)
	}
	if run.Ops.ReEncryptions != 8 {
		t.Errorf("re-encryptions = %d, want 8 (one chunk collapse)", run.Ops.ReEncryptions)
	}
}

func TestSalusEvictCleanPageFree(t *testing.T) {
	ctx, run := testCtx()
	s := NewSalus(ctx, 1<<20, 1<<22, 256)
	fired := false
	ctx.Eng.At(0, func() { s.OnEvict(5, 0, 0, 0xFFFF, func() { fired = true }) })
	drain(ctx)
	if !fired {
		t.Fatal("clean eviction never completed")
	}
	if got := run.Traffic.Total(); got != 0 {
		t.Errorf("clean eviction moved %d bytes", got)
	}
}

func TestSalusAblationToggles(t *testing.T) {
	// Disabling dirty tracking makes a clean eviction behave like a full
	// writeback; disabling collapse adds counter transfers.
	ctx, run := testCtx()
	s := NewSalus(ctx, 1<<20, 1<<22, 256)
	s.DirtyTracking = false
	if s.FineGrainedWriteback() {
		t.Error("FineGrainedWriteback true with dirty tracking off")
	}
	ctx.Eng.At(0, func() { s.OnEvict(5, 0, 0, 0, func() {}) })
	drain(ctx)
	if got := run.Traffic.Bytes(stats.CXL, stats.MAC); got != 16*2*32 {
		t.Errorf("no-dirty-tracking eviction MAC bytes = %d, want 1024", got)
	}

	ctx2, run2 := testCtx()
	s2 := NewSalus(ctx2, 1<<20, 1<<22, 256)
	s2.CollapseCounters = false
	ctx2.Eng.At(0, func() { s2.OnEvict(5, 0, 0b11, 0b11, func() {}) })
	drain(ctx2)
	if got := run2.Traffic.Bytes(stats.CXL, stats.Counter); got != 32 {
		t.Errorf("no-collapse eviction counter bytes = %d, want 32", got)
	}

	ctx3, run3 := testCtx()
	s3 := NewSalus(ctx3, 1<<20, 1<<22, 256)
	s3.FetchOnAccess = false
	ctx3.Eng.At(0, func() { s3.OnMigrateIn(5, 0, func() {}) })
	drain(ctx3)
	if got := run3.Traffic.Bytes(stats.CXL, stats.MAC); got != 1024 {
		t.Errorf("eager-fetch migration MAC bytes = %d, want 1024", got)
	}
}

func TestEngineNames(t *testing.T) {
	ctx, _ := testCtx()
	if NewBaseline(ctx, 1<<20, 1<<22).Name() != "baseline" {
		t.Error("baseline name")
	}
	if NewSalus(ctx, 1<<20, 1<<22, 1).Name() != "salus" {
		t.Error("salus name")
	}
	if !NewSalus(ctx, 1<<20, 1<<22, 1).FineGrainedWriteback() {
		t.Error("salus should default to fine-grained writeback")
	}
	if NewBaseline(ctx, 1<<20, 1<<22).FineGrainedWriteback() {
		t.Error("baseline should not use fine-grained writeback")
	}
}

func TestCacheHitRatesReported(t *testing.T) {
	ctx, _ := testCtx()
	b := NewBaseline(ctx, 1<<20, 1<<22)
	done := 0
	ctx.Eng.At(0, func() {
		b.OnRead(0, 0, func() {
			done++
			b.OnRead(0, 0, func() { done++ }) // second read hits
		})
	})
	drain(ctx)
	if done != 2 {
		t.Fatal("reads incomplete")
	}
	rates := b.CacheHitRates()
	for _, key := range []string{"device.counter", "device.mac", "device.bmt", "cxl.bmt"} {
		if _, ok := rates[key]; !ok {
			t.Errorf("missing hit-rate key %s", key)
		}
	}
	if rates["device.counter"] <= 0 || rates["device.counter"] > 1 {
		t.Errorf("counter hit rate = %v", rates["device.counter"])
	}

	s := NewSalus(ctx, 1<<20, 1<<22, 16)
	if got := s.CacheHitRates(); len(got) != 4 {
		t.Errorf("salus hit-rate keys = %d, want 4", len(got))
	}
}

func TestEvictTreeUpdatesDeterministic(t *testing.T) {
	// Monolithic counters give each chunk of a page its own CXL counter
	// leaf, and Salus's collapsed sectors split a page in two, so one
	// eviction refreshes several tree paths that share ancestors. The
	// order of those refreshes shapes the BMT cache's fetches, merges,
	// MSHR stalls and hits; it must be fixed, so every fresh engine agrees
	// on all of them.
	type outcome struct {
		done    sim.Cycle
		ops     stats.Ops
		traffic stats.Traffic
		cxlBMT  cache.Stats
		rates   string
	}
	evict := func(salus bool) outcome {
		ctx, run := testCtx()
		// Few metadata MSHRs make the walks contend, so the update order
		// decides which fetch waits for an MSHR.
		ctx.Cfg.Security.MetaCacheMSHRs = 32
		var e interface {
			OnEvict(homePage, frame int, dirty, present uint64, done func())
			CacheHitRates() map[string]float64
		}
		var tree *bmtRegion
		if salus {
			s := NewSalus(ctx, 1<<20, 1<<22, 256)
			e, tree = s, s.cxlTree
		} else {
			b := NewBaseline(ctx, 1<<20, 1<<22)
			b.SetMonolithicCounters(true)
			e, tree = b, b.cxlTree
		}
		var out outcome
		pending := 32
		for page := 0; page < 32; page++ {
			ctx.Eng.At(sim.Cycle(page*20), func() {
				e.OnEvict(page, page%16, 0xFFFF, 0xFFFF, func() {
					if pending--; pending == 0 {
						out.done = ctx.Eng.Now()
					}
				})
			})
		}
		drain(ctx)
		if pending != 0 {
			t.Fatalf("salus=%v: %d evictions never completed", salus, pending)
		}
		out.ops, out.traffic = run.Ops, run.Traffic
		out.cxlBMT = tree.cache.Stats()
		out.rates = fmt.Sprint(e.CacheHitRates())
		return out
	}
	for _, salus := range []bool{false, true} {
		first := evict(salus)
		if first.ops.BMTUpdates < 2 {
			t.Fatalf("salus=%v: %d tree updates, want a multi-leaf eviction", salus, first.ops.BMTUpdates)
		}
		for i := 1; i < 20; i++ {
			if got := evict(salus); got != first {
				t.Fatalf("salus=%v: engine %d differs:\n got %+v\nwant %+v", salus, i, got, first)
			}
		}
	}
}
