// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel dispatches scheduled callbacks in (time, sequence) order:
// components schedule callbacks at absolute or relative cycle times, and
// ties are broken by insertion order, so a run is fully reproducible.
//
// The future-event list has two levels. Events due within the next
// ringSpan cycles sit in a ring of per-cycle FIFO buckets, where push and
// pop are O(1); most events are near (fixed pipeline, cache and DRAM
// latencies). Later events wait in a value-typed 4-ary heap ordered by
// (time, sequence) and move into the ring, in that order, as soon as
// simulated time brings them within the span. A far event for cycle T is
// therefore always queued in T's bucket before any near event for T is
// scheduled, which keeps the dispatch order exactly (time, sequence).
// Neither level allocates per event once its buffers have grown.
package sim

import "math/bits"

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

const (
	// ringSpan is the number of cycles the near-event ring covers. It is
	// a power of two above the common fixed latencies (L2, MAC/AES, DRAM).
	ringSpan  = 256
	ringMask  = ringSpan - 1
	ringWords = ringSpan / 64
)

// bucket is the FIFO of callbacks due at one cycle of the ring window.
// Its slice is reused once drained.
type bucket struct {
	fns  []func()
	head int
}

// farEvent is an event at or beyond the ring window.
type farEvent struct {
	when Cycle
	seq  uint64
	fn   func()
}

// Engine is a discrete-event simulator. The zero value is ready to use.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64

	// ring holds every queued event due in [now, now+ringSpan), in the
	// bucket when&ringMask; occupied has bit i set while bucket i is not
	// empty, and near counts the ring's events.
	ring     [ringSpan]bucket
	occupied [ringWords]uint64
	near     int

	// far is a 4-ary min-heap on (when, seq) of every event due at or
	// after now+ringSpan.
	far []farEvent
}

// NewEngine returns an empty engine at cycle 0.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the number of events dispatched so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of events still queued.
func (e *Engine) Pending() int { return e.near + len(e.far) }

// At schedules fn to run at absolute cycle when. Scheduling in the past (or
// at the current cycle) runs the callback at the current cycle, after all
// already-queued events for this cycle.
func (e *Engine) At(when Cycle, fn func()) {
	if when < e.now {
		when = e.now
	}
	if when-e.now < ringSpan {
		e.pushNear(when, fn)
	} else {
		e.pushFar(farEvent{when: when, seq: e.seq, fn: fn})
	}
	e.seq++
}

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn func()) {
	e.At(e.now+delay, fn)
}

// Step dispatches the next event. It reports false when the queue is empty.
func (e *Engine) Step() bool {
	when, ok := e.next()
	if ok {
		e.dispatch(when)
	}
	return ok
}

// Run dispatches events until the queue drains or the time limit is
// exceeded. A limit of 0 means no limit. It returns the cycle at which the
// run stopped: the last event's cycle, or the limit when an event beyond
// it stays queued (time never moves backwards, so a limit below Now()
// stops at Now()).
func (e *Engine) Run(limit Cycle) Cycle {
	return e.RunUntil(limit, func() bool { return true })
}

// Advance moves simulated time forward by d cycles, dispatching any events
// that fall due in the crossed interval, and returns the new current time.
// Components that consume time without scheduling callbacks (e.g. a memory
// controller stalling on a link retry backoff) use this to charge latency
// to the clock.
func (e *Engine) Advance(d Cycle) Cycle {
	if d == 0 {
		return e.now
	}
	target := e.now + d
	for {
		when, ok := e.next()
		if !ok || when > target {
			break
		}
		e.dispatch(when)
	}
	e.advanceTo(target)
	return e.now
}

// RunUntil dispatches events while cond() is true and events remain, up to
// the optional time limit (0 = none), and returns the stop cycle as Run
// does.
func (e *Engine) RunUntil(limit Cycle, cond func() bool) Cycle {
	for cond() {
		when, ok := e.next()
		if !ok {
			break
		}
		if limit != 0 && when > limit {
			if limit > e.now {
				e.advanceTo(limit)
			}
			break
		}
		e.dispatch(when)
	}
	return e.now
}

// next returns the cycle of the earliest queued event. Every ring event
// precedes every far event, so the far heap matters only when the ring is
// empty.
func (e *Engine) next() (Cycle, bool) {
	if e.near == 0 {
		if len(e.far) == 0 {
			return 0, false
		}
		return e.far[0].when, true
	}
	// Scan the occupancy bitmap from now's bucket, wrapping once: bucket
	// i holds cycle now + ((i - p) mod ringSpan).
	p := int(e.now & ringMask)
	w := p / 64
	if m := e.occupied[w] >> (p % 64); m != 0 {
		return e.now + Cycle(bits.TrailingZeros64(m)), true
	}
	for k := 1; k <= ringWords; k++ {
		wi := (w + k) % ringWords
		if m := e.occupied[wi]; m != 0 {
			i := wi*64 + bits.TrailingZeros64(m)
			return e.now + Cycle((i-p)&ringMask), true
		}
	}
	panic("sim: ring count and occupancy bitmap disagree")
}

// dispatch pops and runs the first event of the bucket for cycle when,
// the earliest queued event.
func (e *Engine) dispatch(when Cycle) {
	if when != e.now {
		e.advanceTo(when)
	}
	i := when & ringMask
	b := &e.ring[i]
	fn := b.fns[b.head]
	b.fns[b.head] = nil
	b.head++
	if b.head == len(b.fns) {
		b.fns, b.head = b.fns[:0], 0
		e.occupied[i/64] &^= 1 << (i % 64)
	}
	e.near--
	e.fired++
	fn()
}

// advanceTo moves the clock forward to t, at or before the next queued
// event, and moves the far events that t brings within the ring span into
// their buckets in (when, seq) order. Their buckets are empty: each last
// held a cycle before t, already dispatched.
func (e *Engine) advanceTo(t Cycle) {
	e.now = t
	for len(e.far) > 0 && e.far[0].when-t < ringSpan {
		ev := e.popFar()
		e.pushNear(ev.when, ev.fn)
	}
}

func (e *Engine) pushNear(when Cycle, fn func()) {
	i := when & ringMask
	b := &e.ring[i]
	b.fns = append(b.fns, fn)
	e.occupied[i/64] |= 1 << (i % 64)
	e.near++
}

func (a farEvent) before(b farEvent) bool {
	return a.when < b.when || a.when == b.when && a.seq < b.seq
}

// pushFar adds ev to the far heap, sifting it up.
func (e *Engine) pushFar(ev farEvent) {
	h := append(e.far, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
	e.far = h
}

// popFar removes and returns the far heap's minimum, sifting the last
// element down from the root.
func (e *Engine) popFar() farEvent {
	h := e.far
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = farEvent{}
	h = h[:n]
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		for k := c + 1; k < c+4 && k < n; k++ {
			if h[k].before(h[m]) {
				m = k
			}
		}
		if !h[m].before(last) {
			break
		}
		h[i] = h[m]
		i = m
	}
	if n > 0 {
		h[i] = last
	}
	e.far = h
	return top
}
