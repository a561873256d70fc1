package sim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 2) })
	e.At(5, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 3) }) // same cycle: FIFO by seq
	e.At(20, func() { order = append(order, 4) })
	e.Run(0)
	want := []int{1, 2, 3, 4}
	if len(order) != len(want) {
		t.Fatalf("fired %d events, want %d", len(order), len(want))
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 20 {
		t.Errorf("Now() = %d, want 20", e.Now())
	}
	if e.Fired() != 4 {
		t.Errorf("Fired() = %d, want 4", e.Fired())
	}
}

func TestEngineSchedulePastClamped(t *testing.T) {
	e := NewEngine()
	var at Cycle
	e.At(100, func() {
		e.At(50, func() { at = e.Now() }) // in the past: clamps to now
	})
	e.Run(0)
	if at != 100 {
		t.Errorf("past event fired at %d, want 100", at)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.At(1, func() {
		fired = append(fired, e.Now())
		e.After(9, func() { fired = append(fired, e.Now()) })
	})
	e.Run(0)
	if len(fired) != 2 || fired[0] != 1 || fired[1] != 10 {
		t.Errorf("fired = %v, want [1 10]", fired)
	}
}

func TestEngineRunLimit(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(10, tick)
	}
	e.After(10, tick)
	stop := e.Run(100)
	if stop != 100 {
		t.Errorf("Run stopped at %d, want 100", stop)
	}
	if count != 10 {
		t.Errorf("fired %d ticks, want 10", count)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		e.After(1, tick)
	}
	e.After(1, tick)
	e.RunUntil(0, func() bool { return count < 7 })
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
}

func TestEngineAdvance(t *testing.T) {
	e := NewEngine()
	var fired []Cycle
	e.At(5, func() { fired = append(fired, e.Now()) })
	e.At(20, func() { fired = append(fired, e.Now()) })
	if got := e.Advance(0); got != 0 {
		t.Errorf("Advance(0) = %d, want 0", got)
	}
	if got := e.Advance(10); got != 10 {
		t.Errorf("Advance(10) = %d, want 10", got)
	}
	if len(fired) != 1 || fired[0] != 5 {
		t.Errorf("events fired during first advance = %v, want [5]", fired)
	}
	// Time moves even with an empty due window, and pending events survive.
	if got := e.Advance(5); got != 15 {
		t.Errorf("Advance to 15 = %d", got)
	}
	if e.Pending() != 1 {
		t.Errorf("pending = %d, want 1", e.Pending())
	}
	if got := e.Advance(10); got != 25 {
		t.Errorf("Advance to 25 = %d", got)
	}
	if len(fired) != 2 || fired[1] != 20 {
		t.Errorf("fired = %v, want the cycle-20 event dispatched en route", fired)
	}
}

func TestEngineMonotonicTime(t *testing.T) {
	// Property: dispatch order never goes backwards in time, for any set of
	// scheduled delays.
	f := func(delays []uint16) bool {
		e := NewEngine()
		var last Cycle
		ok := true
		for _, d := range delays {
			e.At(Cycle(d), func() {
				if e.Now() < last {
					ok = false
				}
				last = e.Now()
			})
		}
		e.Run(0)
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerSerialService(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 2, 1, 0) // 2 cycles per unit, no latency
	var c1, c2 Cycle
	e.At(0, func() {
		c1 = s.Submit(3, nil) // serves [0,6)
		c2 = s.Submit(2, nil) // serves [6,10)
	})
	e.Run(0)
	if c1 != 6 {
		t.Errorf("first completion = %d, want 6", c1)
	}
	if c2 != 10 {
		t.Errorf("second completion = %d, want 10", c2)
	}
}

func TestServerLatencyAndIdleGap(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1, 1, 100)
	var c1, c2 Cycle
	e.At(0, func() { c1 = s.Submit(4, nil) })
	e.At(50, func() { c2 = s.Submit(4, nil) }) // server idle since cycle 4
	e.Run(0)
	if c1 != 104 {
		t.Errorf("c1 = %d, want 104", c1)
	}
	if c2 != 154 { // starts at 50, serves 4, +100 latency
		t.Errorf("c2 = %d, want 154", c2)
	}
}

func TestServerRationalRate(t *testing.T) {
	// 1/4 cycle per unit: 4 units per cycle. 10 units -> ceil-free rational
	// accumulation: 10/4 = 2.5 cycles; residue carries to next submission.
	e := NewEngine()
	s := NewServer(e, 1, 4, 0)
	var c1, c2 Cycle
	e.At(0, func() {
		c1 = s.Submit(10, nil) // 10/4 = 2 cycles + residue 2
		c2 = s.Submit(10, nil) // (10+residue 2)/4 = 3 cycles exactly
	})
	e.Run(0)
	if c1 != 2 {
		t.Errorf("c1 = %d, want 2", c1)
	}
	if c2 != 5 { // total 20 units at 4/cycle = 5 cycles
		t.Errorf("c2 = %d, want 5", c2)
	}
}

func TestServerUtilization(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 1, 1, 0)
	e.At(0, func() { s.Submit(10, nil) })
	e.At(0, func() { e.At(20, func() {}) }) // extend sim to cycle 20
	e.Run(0)
	if got := s.Utilization(); got != 0.5 {
		t.Errorf("Utilization = %v, want 0.5", got)
	}
	if s.UnitsServed() != 10 {
		t.Errorf("UnitsServed = %d, want 10", s.UnitsServed())
	}
}

func TestServerQueueDelay(t *testing.T) {
	e := NewEngine()
	s := NewServer(e, 3, 1, 0)
	var delay Cycle
	e.At(0, func() {
		s.Submit(5, nil) // busy until 15
		delay = s.QueueDelay()
	})
	e.Run(0)
	if delay != 15 {
		t.Errorf("QueueDelay = %d, want 15", delay)
	}
}

func TestServerBandwidthConservation(t *testing.T) {
	// Property: total busy cycles equal ceil-accumulated work regardless of
	// submission pattern.
	f := func(sizes []uint8) bool {
		e := NewEngine()
		s := NewServer(e, 3, 2, 7)
		var total uint64
		e.At(0, func() {
			for _, sz := range sizes {
				u := uint64(sz%32) + 1
				total += u
				s.Submit(u, nil)
			}
		})
		e.Run(0)
		want := total * 3 / 2 // residue may leave < 1 cycle unaccounted
		got := uint64(s.BusyCycles())
		return got == want || got == want-0 || (total*3)%2 != 0 && got == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestServerResidueBilledAcrossIdleGaps(t *testing.T) {
	// A 1/16-rate server (16 units per cycle) receiving one unit per
	// submission with idle gaps in between: each submission's fractional
	// service used to be discarded when the server went idle, leaving
	// busyCycles at zero forever. With the residue carried across idle
	// periods, 32 single-unit submissions bill exactly 32/16 = 2 cycles.
	e := NewEngine()
	s := NewServer(e, 1, 16, 0)
	for i := 0; i < 32; i++ {
		e.At(Cycle(i*100), func() { s.Submit(1, nil) })
	}
	e.Run(0)
	if got := s.BusyCycles(); got != 2 {
		t.Errorf("BusyCycles = %d, want 2", got)
	}
	if got := s.UnitsServed(); got != 32 {
		t.Errorf("UnitsServed = %d, want 32", got)
	}
}

func TestServerResidueConservationAcrossIdle(t *testing.T) {
	// Property form: for any submission pattern with arbitrary idle gaps,
	// total busy cycles equal floor(total_units * num / den).
	e := NewEngine()
	s := NewServer(e, 3, 7, 5)
	var total uint64
	when := Cycle(0)
	for i := 0; i < 50; i++ {
		u := uint64(i%5 + 1)
		total += u
		e.At(when, func() { s.Submit(u, nil) })
		when += Cycle(i%40 + 1) // mixes back-to-back and long-idle submissions
	}
	e.Run(0)
	if want := Cycle(total * 3 / 7); s.BusyCycles() != want {
		t.Errorf("BusyCycles = %d, want %d (total units %d)", s.BusyCycles(), want, total)
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero Clock starts at %d", c.Now())
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if got := c.Now(); got != 4000 {
		t.Fatalf("Clock.Now() = %d after 4x1000 advances, want 4000", got)
	}
	if got := c.Advance(5); got != 4005 {
		t.Fatalf("Advance returned %d, want 4005", got)
	}
}
