package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"math/rand"
	"sync"
	"time"
)

const (
	pageSize = 4096 // config.Default() page size every functional workload uses
	opBytes  = 32   // one sector per request
)

// op is one generated client operation on a pool-global byte address.
// Writes carry the offset of their payload in the stream's payload pool.
type op struct {
	addr    uint64
	payload uint32
	write   bool
}

// stream is a client's seeded op sequence; clients cycle through it.
type stream struct {
	ops     []op
	payload []byte
}

// streamSpec shapes a stream: which pages the client owns, the write
// probability 1/writeOneIn, and the stream length.
type streamSpec struct {
	pages      []int
	writeOneIn int
	n          int
}

// subSeed derives an independent generator seed for one named part of a
// workload, so every client's stream depends on the run seed alone.
func subSeed(seed int64, part string, k int) int64 {
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(k))
	h := sha256.Sum256(append(b[:], part...))
	return int64(binary.LittleEndian.Uint64(h[:8]) >> 1)
}

// genStream builds a stream: each op picks an owned page uniformly, a
// sector within it uniformly, and is a write with probability
// 1/writeOneIn, carrying fresh random bytes.
func genStream(seed int64, sp streamSpec) *stream {
	rng := rand.New(rand.NewSource(seed))
	st := &stream{ops: make([]op, sp.n)}
	for i := range st.ops {
		page := sp.pages[rng.Intn(len(sp.pages))]
		sector := rng.Intn(pageSize / opBytes)
		o := op{addr: uint64(page*pageSize + sector*opBytes), write: rng.Intn(sp.writeOneIn) == 0}
		if o.write {
			o.payload = uint32(len(st.payload))
			buf := make([]byte, opBytes)
			rng.Read(buf)
			st.payload = append(st.payload, buf...)
		}
		st.ops[i] = o
	}
	return st
}

// interleave merges client streams op by op: the single-client ladder
// rungs replay the same ops the concurrent clients send.
func interleave(ss []*stream) *stream {
	out := &stream{}
	for i := 0; ; i++ {
		done := true
		for _, s := range ss {
			if i >= len(s.ops) {
				continue
			}
			done = false
			o := s.ops[i]
			if o.write {
				off := len(out.payload)
				out.payload = append(out.payload, s.payload[o.payload:o.payload+opBytes]...)
				o.payload = uint32(off)
			}
			out.ops = append(out.ops, o)
		}
		if done {
			return out
		}
	}
}

// pageRange lists pages [from, from+n).
func pageRange(from, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i
	}
	return out
}

// fillBytes returns n seeded random bytes: the content workloads write
// into every page before timing.
func fillBytes(seed int64, n int) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// target is one rung of the ladder: the calls a client makes at that
// layer, on pool-global addresses.
type target interface {
	read(addr uint64, buf []byte) error
	write(addr uint64, data []byte) error
	// layer names the public call for spans.
	layer(write bool) string
}

// client drives one stream against one target and checks every read
// against its shadow: the bytes this client last wrote to the
// addresses it owns. No other client writes those addresses, so any
// difference is an error of the stack.
type client struct {
	t      target
	st     *stream
	shadow []byte
	lat    *latencies // nil: latencies not recorded
	spans  *spanLog   // nil: tracing off
	id     int
	next   int // stream position, kept across runs of the same client

	ops, fails, mismatches int64
}

// run sends ops until the deadline passes or maxOps ops (0 = no cap)
// have been sent.
func (c *client) run(deadline time.Time, maxOps int64) {
	buf := make([]byte, opBytes)
	n := len(c.st.ops)
	for sent := int64(0); maxOps == 0 || sent < maxOps; sent++ {
		o := &c.st.ops[c.next]
		c.next++
		if c.next == n {
			c.next = 0
		}
		var root, call int
		if c.spans != nil {
			opID := int64(c.id)<<40 | c.ops
			root = c.spans.begin("client.op", 0, opID)
			call = c.spans.begin(c.t.layer(o.write), c.spans.id(root), opID)
		}
		start := time.Now()
		var err error
		if o.write {
			err = c.t.write(o.addr, c.st.payload[o.payload:o.payload+opBytes])
		} else {
			err = c.t.read(o.addr, buf)
		}
		lat := time.Since(start)
		if c.spans != nil {
			c.spans.end(call)
		}
		c.ops++
		switch {
		case err != nil:
			c.fails++
		case o.write:
			copy(c.shadow[o.addr:], c.st.payload[o.payload:o.payload+opBytes])
		case !bytes.Equal(buf, c.shadow[o.addr:o.addr+opBytes]):
			c.mismatches++
		}
		if c.spans != nil {
			c.spans.end(root)
		}
		if c.lat != nil {
			c.lat.add(start, lat)
		}
		if !start.Before(deadline) {
			return
		}
	}
}

// failed counts this client's errored and wrong-byte ops.
func (c *client) failed() int64 { return c.fails + c.mismatches }

// phaseResult is what a timed phase of concurrent clients produced.
type phaseResult struct {
	ops, failed int64
	elapsed     time.Duration
}

// drive runs every client on its own goroutine until dur elapses (or
// each reached maxOps) and waits for all of them.
func drive(cs []*client, dur time.Duration, maxOps int64) phaseResult {
	before := make([]int64, len(cs))
	failedBefore := make([]int64, len(cs))
	for i, c := range cs {
		before[i], failedBefore[i] = c.ops, c.failed()
	}
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(deadline, maxOps)
		}(c)
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start)}
	for i, c := range cs {
		res.ops += c.ops - before[i]
		res.failed += c.failed() - failedBefore[i]
	}
	return res
}

// nsPerOp is the wall time per op a single client saw.
func (r phaseResult) nsPerOp() float64 {
	if r.ops == 0 {
		return 0
	}
	return float64(r.elapsed.Nanoseconds()) / float64(r.ops)
}

// opsPerS is the phase's aggregate throughput.
func (r phaseResult) opsPerS() float64 {
	return float64(r.ops) / r.elapsed.Seconds()
}
