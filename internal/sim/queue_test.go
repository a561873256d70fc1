package sim

import (
	"fmt"
	"testing"
)

// refEngine is the reference model of the kernel's dispatch rule: a flat
// list of events popped by smallest (when, seq), with past times clamped
// to now and time never moving backwards.
type refEngine struct {
	now   Cycle
	seq   uint64
	fired uint64
	q     []refEvent
}

type refEvent struct {
	when Cycle
	seq  uint64
	fn   func()
}

func (r *refEngine) At(when Cycle, fn func()) {
	if when < r.now {
		when = r.now
	}
	r.q = append(r.q, refEvent{when, r.seq, fn})
	r.seq++
}

func (r *refEngine) After(d Cycle, fn func()) { r.At(r.now+d, fn) }

func (r *refEngine) Now() Cycle    { return r.now }
func (r *refEngine) Fired() uint64 { return r.fired }
func (r *refEngine) Pending() int  { return len(r.q) }

// min returns the index of the earliest event, or -1 when none is queued.
func (r *refEngine) min() int {
	best := -1
	for i, ev := range r.q {
		if best < 0 || ev.when < r.q[best].when || ev.when == r.q[best].when && ev.seq < r.q[best].seq {
			best = i
		}
	}
	return best
}

func (r *refEngine) Step() bool {
	i := r.min()
	if i < 0 {
		return false
	}
	ev := r.q[i]
	r.q = append(r.q[:i], r.q[i+1:]...)
	r.now = ev.when
	r.fired++
	ev.fn()
	return true
}

func (r *refEngine) RunUntil(limit Cycle, cond func() bool) Cycle {
	for cond() {
		i := r.min()
		if i < 0 {
			break
		}
		if limit != 0 && r.q[i].when > limit {
			if limit > r.now {
				r.now = limit
			}
			break
		}
		r.Step()
	}
	return r.now
}

func (r *refEngine) Run(limit Cycle) Cycle {
	return r.RunUntil(limit, func() bool { return true })
}

func (r *refEngine) Advance(d Cycle) Cycle {
	target := r.now + d
	for {
		i := r.min()
		if i < 0 || r.q[i].when > target {
			break
		}
		r.Step()
	}
	r.now = target
	return r.now
}

// queue is the API the differential test drives on both implementations.
type queue interface {
	At(Cycle, func())
	After(Cycle, func())
	Step() bool
	Run(Cycle) Cycle
	RunUntil(Cycle, func() bool) Cycle
	Advance(Cycle) Cycle
	Now() Cycle
	Fired() uint64
	Pending() int
}

// driver schedules events on one queue and logs every dispatch. Each
// event's children are a pure function of (seed, id), so two drivers fed
// the same operations schedule the same events if and only if their
// queues dispatch in the same order at the same cycles.
type driver struct {
	q      queue
	seed   int64
	budget int
	nextID int
	log    []dispatched
}

type dispatched struct {
	id int
	at Cycle
}

// mix is a splitmix64 stream: a cheap PRNG keyed by (seed, id).
type mix uint64

func (m *mix) Intn(n int) int {
	*m += 0x9e3779b97f4a7c15
	z := uint64(*m)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// target draws a schedule time relative to now: delays straddling the
// ring span, far delays, cycles aligned to a shared grid so that events
// scheduled from different distances land on one cycle (some through the
// far heap, some straight into the ring), and times in the past.
func target(rng *mix, now Cycle) Cycle {
	switch rng.Intn(6) {
	case 0:
		return now + Cycle(rng.Intn(8))
	case 1:
		return now + ringSpan - 3 + Cycle(rng.Intn(6))
	case 2:
		return now + Cycle(rng.Intn(3*ringSpan))
	case 3:
		return now + Cycle(rng.Intn(20*ringSpan))
	case 4:
		grid := Cycle(64)
		return (now + Cycle(rng.Intn(2*ringSpan)) + grid - 1) / grid * grid
	default:
		return now - Cycle(rng.Intn(int(min(now, 50))+1))
	}
}

func (d *driver) schedule(when Cycle) {
	id := d.nextID
	d.nextID++
	d.q.At(when, func() { d.fire(id) })
}

func (d *driver) fire(id int) {
	d.log = append(d.log, dispatched{id, d.q.Now()})
	rng := mix(d.seed<<32 | int64(id))
	for n := rng.Intn(3); n > 0 && d.nextID < d.budget; n-- {
		if rng.Intn(4) == 0 {
			id := d.nextID
			d.nextID++
			d.q.After(Cycle(rng.Intn(2*ringSpan)), func() { d.fire(id) })
			continue
		}
		d.schedule(target(&rng, d.q.Now()))
	}
}

// TestEngineMatchesReference drives the engine and the reference model
// through the same random mix of scheduling, Step, Run(limit), Advance
// and RunUntil, and requires identical dispatch logs, clocks, fired and
// pending counts after every operation.
func TestEngineMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 60; seed++ {
		eng := &driver{q: NewEngine(), seed: seed, budget: 3000}
		ref := &driver{q: &refEngine{}, seed: seed, budget: 3000}
		ops := mix(seed)
		for op := 0; op < 400; op++ {
			kind := ops.Intn(7)
			arg := Cycle(ops.Intn(4 * ringSpan))
			roots := ops.Intn(4)
			stopAfter := uint64(ops.Intn(40))
			var ret [2]Cycle
			for i, d := range []*driver{eng, ref} {
				var r Cycle
				switch kind {
				case 0, 1: // external scheduling, same draws for both
					rng := mix(seed*7919 + int64(op))
					for k := 0; k < roots; k++ {
						d.schedule(target(&rng, d.q.Now()))
					}
					r = d.q.Now()
				case 2:
					d.q.Step()
					r = d.q.Now()
				case 3: // a limit between, inside or beyond the levels
					r = d.q.Run(d.q.Now() + arg)
				case 4: // may cross an empty ring into far events
					r = d.q.Advance(arg * 4)
				case 5:
					stop := d.q.Fired() + stopAfter
					r = d.q.RunUntil(d.q.Now()+arg*8, func() bool { return d.q.Fired() < stop })
				default: // a limit in the past stops at now
					r = d.q.Run(d.q.Now()/2 + 1)
				}
				ret[i] = r
			}
			if ret[0] != ret[1] || eng.q.Fired() != ref.q.Fired() || eng.q.Pending() != ref.q.Pending() ||
				len(eng.log) != len(ref.log) {
				t.Fatalf("seed %d op %d (kind %d): returned %d/%d, fired %d/%d, pending %d/%d, logged %d/%d",
					seed, op, kind, ret[0], ret[1], eng.q.Fired(), ref.q.Fired(),
					eng.q.Pending(), ref.q.Pending(), len(eng.log), len(ref.log))
			}
		}
		eng.q.Run(0)
		ref.q.Run(0)
		if eng.q.Now() != ref.q.Now() || len(eng.log) != len(ref.log) {
			t.Fatalf("seed %d drain: now %d/%d, logged %d/%d", seed, eng.q.Now(), ref.q.Now(), len(eng.log), len(ref.log))
		}
		for i := range ref.log {
			if eng.log[i] != ref.log[i] {
				t.Fatalf("seed %d: dispatch %d is %+v, reference %+v", seed, i, eng.log[i], ref.log[i])
			}
		}
	}
}

func TestEngineFarEventPrecedesNearTie(t *testing.T) {
	// Two events for cycle 300 queued from cycle 0 wait in the far heap;
	// a third scheduled from cycle 100 goes straight into the ring. The
	// far pair must still fire first, in scheduling order.
	e := NewEngine()
	var order []string
	e.At(300, func() { order = append(order, "far1") })
	e.At(300, func() { order = append(order, "far2") })
	e.At(100, func() {
		e.At(300, func() { order = append(order, "near") })
		e.After(0, func() { order = append(order, "now") })
	})
	e.Run(0)
	if fmt.Sprint(order) != "[now far1 far2 near]" {
		t.Errorf("order = %v, want [now far1 far2 near]", order)
	}
}

func TestEngineStepAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	// Grow every bucket and the far heap once.
	for d := Cycle(0); d < 4*ringSpan; d++ {
		e.After(d, fn)
	}
	e.Run(0)
	for _, delay := range []Cycle{0, 1, 40, ringSpan - 1, ringSpan, 1000} {
		allocs := testing.AllocsPerRun(200, func() {
			e.After(delay, fn)
			e.Step()
		})
		if allocs != 0 {
			t.Errorf("After(%d)+Step allocates %.1f times, want 0", delay, allocs)
		}
	}
}

// BenchmarkEngine dispatches a steady population of 512 self-rescheduling
// events whose delays mix the simulator's fixed latencies with far
// retries.
func BenchmarkEngine(b *testing.B) {
	e := NewEngine()
	delays := []Cycle{1, 30, 40, 200, 1, 8, 600, 30, 2000}
	n := 0
	var tick func()
	tick = func() {
		n++
		e.After(delays[n%len(delays)], tick)
	}
	for i := 0; i < 512; i++ {
		e.After(Cycle(i), tick)
	}
	for i := 0; i < 10000; i++ {
		e.Step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
