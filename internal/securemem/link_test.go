package securemem

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/salus-sim/salus/internal/link"
)

func pageData(page, n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(page*31 + i)
	}
	return buf
}

// TestOutageParksEvictionsAndServesResident drives the core degraded-mode
// policy: during an outage, dirty evictions park on the writeback queue,
// parked pages keep serving reads and writes from device memory, misses
// fail fast typed, and a miss after recovery drains exactly the queue
// head — FIFO per page — to free its frame.
func TestOutageParksEvictionsAndServesResident(t *testing.T) {
	sys, err := New(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  6,
		DevicePages: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.Config{Threshold: 1, Cooldown: 1})
	sys.AttachLink(lnk, nil, 4)

	// Fill the device tier with three dirty pages.
	for p := 0; p < 3; p++ {
		if err := sys.Write(HomeAddr(p*4096), pageData(p, 64)); err != nil {
			t.Fatal(err)
		}
	}
	manual.Set(link.StateDown)

	// Flush cannot reach home: every dirty frame parks, none evicts.
	if err := sys.Flush(); err != nil {
		t.Fatalf("Flush during outage: %v", err)
	}
	if got := sys.QueuedWritebacks(); got != 3 {
		t.Fatalf("QueuedWritebacks = %d, want 3", got)
	}
	for p := 0; p < 3; p++ {
		if !sys.IsResident(HomeAddr(p * 4096)) {
			t.Fatalf("page %d no longer resident after parked flush", p)
		}
	}

	// Device hits keep serving, including writes to parked pages.
	got := make([]byte, 64)
	if err := sys.Read(HomeAddr(0), got); err != nil {
		t.Fatalf("resident read during outage: %v", err)
	}
	if !bytes.Equal(got, pageData(0, 64)) {
		t.Fatalf("resident read returned wrong bytes during outage")
	}
	if err := sys.Write(HomeAddr(4096), pageData(1, 64)); err != nil {
		t.Fatalf("resident write during outage: %v", err)
	}

	// Misses fail fast and typed — no retry/backoff spin.
	err = sys.Read(HomeAddr(3*4096), got)
	if !errors.Is(err, ErrLinkDown) && !errors.Is(err, ErrDegraded) {
		t.Fatalf("miss during outage: got %v, want ErrLinkDown/ErrDegraded", err)
	}
	st := sys.Stats()
	if st.Retries != 0 || st.RetryBackoffCycles != 0 {
		t.Fatalf("outage consumed the transient retry budget: %+v", st)
	}
	if lst := lnk.Stats(); lst.DownRefusals == 0 || lst.BreakerOpens == 0 {
		t.Fatalf("outage not visible in link stats: %+v", lst)
	}

	// Recovery: a miss drains exactly the queue head to free a frame.
	manual.Set(link.StateUp)
	for tries := 0; ; tries++ {
		// The first attempt may still fast-fail while the breaker cools.
		err = sys.Read(HomeAddr(3*4096), got)
		if err == nil {
			break
		}
		if tries > 2 || !errors.Is(err, ErrDegraded) {
			t.Fatalf("post-recovery miss: %v", err)
		}
	}
	if sys.IsResident(HomeAddr(0)) {
		t.Fatal("queue head (page 0) was not drained first")
	}
	if !sys.IsResident(HomeAddr(4096)) || !sys.IsResident(HomeAddr(2*4096)) {
		t.Fatal("drain-on-miss drained more than the head")
	}
	if got := sys.QueuedWritebacks(); got != 2 {
		t.Fatalf("QueuedWritebacks = %d after head drain, want 2", got)
	}

	// The reconciler drains the remainder, FIFO, exactly once each.
	n, err := sys.DrainWritebacks()
	if err != nil {
		t.Fatalf("DrainWritebacks: %v", err)
	}
	if n != 2 || sys.QueuedWritebacks() != 0 {
		t.Fatalf("drained %d (queue %d), want 2 (0)", n, sys.QueuedWritebacks())
	}
	st = sys.Stats()
	if st.WritebacksQueued != 3 || st.WritebacksDrained != 3 || st.WritebackQueuePeak != 3 {
		t.Fatalf("queue accounting: %+v", st)
	}

	// Every byte survived the outage.
	for p := 0; p < 3; p++ {
		if err := sys.Read(HomeAddr(p*4096), got); err != nil {
			t.Fatalf("post-drain read of page %d: %v", p, err)
		}
		if !bytes.Equal(got, pageData(p, 64)) {
			t.Fatalf("page %d bytes diverged across the outage", p)
		}
	}
}

// TestDrainFIFOIdempotentUnderMidDrainFlap parks three writebacks, lets
// the link come back for exactly one drain, flaps it again, and checks
// that the interrupted drain resumes at the head with nothing drained
// twice: N parked writebacks produce exactly N drains, in page order.
func TestDrainFIFOIdempotentUnderMidDrainFlap(t *testing.T) {
	sys, err := New(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  6,
		DevicePages: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		if err := sys.Write(HomeAddr(p*4096), pageData(p, 32)); err != nil {
			t.Fatal(err)
		}
	}
	// Ordinals: 0,1,2 park the three flush evictions; 3 drains the head;
	// 4 refuses the second drain; 5+ let the rest through. Threshold 10
	// keeps the breaker out of the schedule.
	plan, err := link.ParsePlan("down@0..3,down@4..5")
	if err != nil {
		t.Fatal(err)
	}
	sys.AttachLink(link.New(plan, link.Config{Threshold: 10, Cooldown: 1}), nil, 4)

	if err := sys.Flush(); err != nil {
		t.Fatalf("Flush during outage: %v", err)
	}
	if got := sys.QueuedWritebacks(); got != 3 {
		t.Fatalf("QueuedWritebacks = %d, want 3", got)
	}

	// First drain: head goes home, then the link flaps mid-drain.
	n, err := sys.DrainWritebacks()
	if n != 1 || !errors.Is(err, ErrLinkDown) {
		t.Fatalf("interrupted drain = (%d, %v), want (1, ErrLinkDown)", n, err)
	}
	if sys.IsResident(HomeAddr(0)) {
		t.Fatal("head (page 0) not drained first")
	}
	if !sys.IsResident(HomeAddr(4096)) || !sys.IsResident(HomeAddr(2*4096)) {
		t.Fatal("non-head pages drained out of order")
	}
	if got := sys.QueuedWritebacks(); got != 2 {
		t.Fatalf("QueuedWritebacks = %d after interruption, want 2", got)
	}
	// The interrupted page kept its queue position and was not re-queued.
	if st := sys.Stats(); st.WritebacksQueued != 3 {
		t.Fatalf("WritebacksQueued = %d after mid-drain flap, want 3 (no re-queue)", st.WritebacksQueued)
	}

	// Second drain resumes at the head and finishes: exactly N drains total.
	n, err = sys.DrainWritebacks()
	if n != 2 || err != nil {
		t.Fatalf("resumed drain = (%d, %v), want (2, nil)", n, err)
	}
	st := sys.Stats()
	if st.WritebacksQueued != 3 || st.WritebacksDrained != 3 || st.WritebacksDropped != 0 {
		t.Fatalf("queue accounting after resume: %+v", st)
	}
	buf := make([]byte, 32)
	for p := 0; p < 3; p++ {
		if err := sys.Read(HomeAddr(p*4096), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pageData(p, 32)) {
			t.Fatalf("page %d bytes diverged", p)
		}
	}
}

// TestQueueFullBackpressure checks the bounded queue pushes back with
// ErrQueueFull instead of growing without limit or blocking.
func TestQueueFullBackpressure(t *testing.T) {
	sys, err := New(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  8,
		DevicePages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.DefaultConfig())
	sys.AttachLink(lnk, nil, 2)
	for p := 0; p < 4; p++ {
		if err := sys.Write(HomeAddr(p*4096), pageData(p, 32)); err != nil {
			t.Fatal(err)
		}
	}
	manual.Set(link.StateDown)
	err = sys.Flush()
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("Flush with full queue: got %v, want ErrQueueFull", err)
	}
	st := sys.Stats()
	if sys.QueuedWritebacks() != 2 || st.WritebacksDropped == 0 {
		t.Fatalf("queue = %d, dropped = %d; want 2 parked and drops counted",
			sys.QueuedWritebacks(), st.WritebacksDropped)
	}
	// Recovery still drains the parked two and the rest flush normally.
	manual.Set(link.StateUp)
	lnk.ForceUp()
	if n, err := sys.DrainWritebacks(); n != 2 || err != nil {
		t.Fatalf("drain after backpressure = (%d, %v), want (2, nil)", n, err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 32)
	for p := 0; p < 4; p++ {
		if err := sys.Read(HomeAddr(p*4096), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pageData(p, 32)) {
			t.Fatalf("page %d bytes diverged", p)
		}
	}
}

// TestSuspendRefusesParkedWritebacks: a suspend image must not be cut
// while parked writebacks hold newer data than the home tier.
func TestSuspendRefusesParkedWritebacks(t *testing.T) {
	sys, err := New(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  4,
		DevicePages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.DefaultConfig())
	sys.AttachLink(lnk, nil, 4)
	if err := sys.Write(HomeAddr(0), pageData(0, 32)); err != nil {
		t.Fatal(err)
	}
	manual.Set(link.StateDown)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sys.Suspend(); !errors.Is(err, ErrWritebacksPending) {
		t.Fatalf("Suspend with parked writebacks: got %v, want ErrWritebacksPending", err)
	}
	manual.Set(link.StateUp)
	lnk.ForceUp()
	if n, err := sys.DrainWritebacks(); n != 1 || err != nil {
		t.Fatalf("drain = (%d, %v), want (1, nil)", n, err)
	}
	if _, _, err := sys.Suspend(); err != nil {
		t.Fatalf("Suspend after drain: %v", err)
	}
}

// TestRollbackDuringOutageDetectedOnDrain is the security core of the
// reconciler: home-tier state rolled back while the link was down (and
// the system could not look) must surface as ErrFreshness when the queue
// drains — never be silently blessed by the writeback.
func TestRollbackDuringOutageDetectedOnDrain(t *testing.T) {
	sys, err := New(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  4,
		DevicePages: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.DefaultConfig())
	sys.AttachLink(lnk, nil, 4)

	// Epoch A: write and flush so the home tier holds state A.
	if err := sys.Write(HomeAddr(0), pageData(7, 32)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := sys.SnapshotHomeChunk(HomeAddr(0))

	// Epoch B: advance the home state past the snapshot.
	if err := sys.Write(HomeAddr(0), pageData(8, 32)); err != nil {
		t.Fatal(err)
	}
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}

	// Epoch C stays dirty in the device tier when the link dies.
	if err := sys.Write(HomeAddr(0), pageData(9, 32)); err != nil {
		t.Fatal(err)
	}
	manual.Set(link.StateDown)
	if err := sys.Flush(); err != nil {
		t.Fatal(err)
	}
	if sys.QueuedWritebacks() != 1 {
		t.Fatalf("QueuedWritebacks = %d, want 1", sys.QueuedWritebacks())
	}

	// The attack: roll the home chunk back to state A during the outage.
	sys.ReplayHomeChunk(snap)

	manual.Set(link.StateUp)
	lnk.ForceUp()
	n, err := sys.DrainWritebacks()
	if !errors.Is(err, ErrFreshness) {
		t.Fatalf("drain over rolled-back home tier = (%d, %v), want ErrFreshness", n, err)
	}
	if n != 0 || sys.QueuedWritebacks() != 1 {
		t.Fatalf("rollback drain freed state anyway: n=%d queue=%d", n, sys.QueuedWritebacks())
	}
	// Detection is sticky, not a one-shot: a retry refuses again.
	if _, err := sys.DrainWritebacks(); !errors.Is(err, ErrFreshness) {
		t.Fatalf("second drain after rollback: got %v, want ErrFreshness", err)
	}
}

// TestConcurrentOutageProgress is the race-stress proof for the
// degraded-mode locking: while a scripted outage refuses every home
// transfer, goroutines reading device-resident pages keep making
// progress — the wrapper never holds its lock across a retry/backoff
// spin — and concurrent misses fail fast with typed errors only.
func TestConcurrentOutageProgress(t *testing.T) {
	c, err := NewConcurrent(Config{
		Geometry:    testGeo(),
		Model:       ModelSalus,
		TotalPages:  12,
		DevicePages: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	manual := link.NewManual()
	lnk := link.New(manual, link.DefaultConfig())
	// Single-threaded setup phase: arm the link and warm the device tier.
	sys := c.Unwrap()
	sys.AttachLink(lnk, nil, 2)
	for p := 0; p < 4; p++ {
		if err := c.Write(HomeAddr(p*4096), pageData(p, 48)); err != nil {
			t.Fatal(err)
		}
	}
	manual.Set(link.StateDown)

	const iters = 200
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	// Device-resident readers: must succeed every time, outage or not.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			want := pageData(g, 48)
			buf := make([]byte, 48)
			for i := 0; i < iters; i++ {
				if err := c.Read(HomeAddr(g*4096), buf); err != nil {
					fail(fmt.Errorf("resident read g%d i%d: %w", g, i, err))
					return
				}
				if !bytes.Equal(buf, want) {
					fail(fmt.Errorf("resident read g%d i%d: wrong bytes", g, i))
					return
				}
			}
		}(g)
	}
	// Missers: every failure must be typed link degradation, never a hang
	// or an untyped error. (Misses can also park victims and hit queue
	// backpressure, both typed.)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, 16)
			for i := 0; i < iters; i++ {
				err := c.Read(HomeAddr((4+(g*4+i)%8)*4096), buf)
				if err == nil {
					continue // a clean victim freed a frame; fine
				}
				if !errors.Is(err, ErrLinkDown) && !errors.Is(err, ErrDegraded) && !errors.Is(err, ErrQueueFull) {
					fail(fmt.Errorf("miss g%d i%d: untyped outage error %w", g, i, err))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Retries != 0 || st.RetryBackoffCycles != 0 {
		t.Fatalf("outage leaked into the retry budget: %+v", st)
	}
	if lst := lnk.Stats(); lst.DownRefusals == 0 {
		t.Fatalf("scripted outage never refused a transfer: %+v", lst)
	}

	// Recovery: drain through the concurrent reconciler and verify bytes.
	manual.Set(link.StateUp)
	lnk.ForceUp()
	if _, err := c.DrainWritebacks(); err != nil {
		t.Fatalf("concurrent drain: %v", err)
	}
	if c.QueuedWritebacks() != 0 {
		t.Fatalf("queue not empty after drain: %d", c.QueuedWritebacks())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 48)
	for p := 0; p < 4; p++ {
		if err := c.Read(HomeAddr(p*4096), buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pageData(p, 48)) {
			t.Fatalf("page %d bytes diverged across concurrent outage", p)
		}
	}
}
