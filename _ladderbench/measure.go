package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"
)

// reservoirSize bounds the latency samples kept per client per window,
// so memory (and peak RSS) stays fixed however fast the stack runs.
const reservoirSize = 1 << 15

// latencies records one client's per-op latencies into per-window
// uniform reservoirs. Windows split the measured interval into equal
// slices; end-to-end figures are medians over windows, which keeps a
// transient stall on a shared host from moving the whole run.
type latencies struct {
	start  time.Time
	window time.Duration
	res    [][]uint32 // latency samples in ns, per window
	seen   []int64    // ops recorded, per window
	rng    uint64
}

func newLatencies(start time.Time, window time.Duration, windows int, seed uint64) *latencies {
	l := &latencies{start: start, window: window, seen: make([]int64, windows), rng: seed | 1}
	l.res = make([][]uint32, windows)
	for i := range l.res {
		l.res[i] = make([]uint32, 0, reservoirSize)
	}
	return l
}

// add records an op that began at at and took d. Ops past the last
// window are dropped: they belong to no full window.
func (l *latencies) add(at time.Time, d time.Duration) {
	w := int(at.Sub(l.start) / l.window)
	if w < 0 || w >= len(l.seen) {
		return
	}
	ns := d.Nanoseconds()
	if ns > math.MaxUint32 {
		ns = math.MaxUint32
	}
	l.seen[w]++
	r := l.res[w]
	if len(r) < reservoirSize {
		l.res[w] = append(r, uint32(ns))
		return
	}
	// xorshift64: cheap, and the sampling needs no statistical strength.
	l.rng ^= l.rng << 13
	l.rng ^= l.rng >> 7
	l.rng ^= l.rng << 17
	if j := l.rng % uint64(l.seen[w]); j < reservoirSize {
		r[j] = uint32(ns)
	}
}

// windowSummary folds several clients' latencies: per full window the
// throughput and the p50/p99 of the pooled samples, then the median of
// each over windows. full is the number of windows the run covered
// entirely.
type windowSummary struct {
	opsPerS, p50us, p99us float64
	samples               int
}

func summarize(ls []*latencies, full int) windowSummary {
	var tput, p50, p99 []float64
	var samples int
	for w := 0; w < full && w < len(ls[0].seen); w++ {
		var ops int64
		var xs []float64
		for _, l := range ls {
			ops += l.seen[w]
			for _, v := range l.res[w] {
				xs = append(xs, float64(v))
			}
		}
		if len(xs) == 0 {
			continue
		}
		samples += int(ops)
		tput = append(tput, float64(ops)/ls[0].window.Seconds())
		p50 = append(p50, quantile(xs, 0.50)/1e3)
		p99 = append(p99, quantile(xs, 0.99)/1e3)
	}
	return windowSummary{opsPerS: median(tput), p50us: median(p50), p99us: median(p99), samples: samples}
}

// peakRSSMB returns the process's peak resident set in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rtSnap is a point-in-time read of the Go runtime counters the
// per-layer metrics difference.
type rtSnap struct {
	allocs    uint64
	mutexWait float64 // seconds
	gcCycles  uint32
	pauseNs   uint64
}

var rtSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/sync/mutex/wait/total:seconds"},
}

func readRuntime() rtSnap {
	s := make([]metrics.Sample, len(rtSamples))
	copy(s, rtSamples)
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	snap := rtSnap{gcCycles: ms.NumGC, pauseNs: ms.PauseTotalNs}
	if s[0].Value.Kind() == metrics.KindUint64 {
		snap.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		snap.mutexWait = s[1].Value.Float64()
	}
	return snap
}

// runtimeMetrics fills the runtime.* per-layer metrics for ops executed
// between a and b.
func runtimeMetrics(m map[string]float64, a, b rtSnap, ops int64) {
	if ops <= 0 {
		return
	}
	m["runtime.allocs_per_op"] = float64(b.allocs-a.allocs) / float64(ops)
	m["runtime.mutex_wait_us_per_kop"] = (b.mutexWait - a.mutexWait) * 1e6 / (float64(ops) / 1e3)
	m["runtime.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	m["runtime.gc_pause_ms"] = float64(b.pauseNs-a.pauseNs) / 1e6
}

// span is one timed call the benchmark made into a layer. Spans of one
// op share op; parent is the id of the enclosing span (0 at the root).
type span struct {
	name       string
	id, parent int64
	op         int64
	start, end int64 // ns since the log's origin
}

// spanLog keeps one goroutine's spans in memory until the run ends; it
// is not shared, so it needs no lock. ids are unique across logs of one
// run because each log owns a distinct id prefix.
type spanLog struct {
	origin time.Time
	prefix int64
	spans  []span
}

func newSpanLog(origin time.Time, owner int) *spanLog {
	return &spanLog{origin: origin, prefix: int64(owner+1) << 40}
}

// begin opens a span and returns its index; end closes it.
func (l *spanLog) begin(name string, parent, op int64) int {
	l.spans = append(l.spans, span{
		name: name, id: l.prefix + int64(len(l.spans)) + 1, parent: parent, op: op,
		start: time.Since(l.origin).Nanoseconds(),
	})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) { l.spans[i].end = time.Since(l.origin).Nanoseconds() }

func (l *spanLog) id(i int) int64 { return l.spans[i].id }

// writeSpanLines writes every span of every log as one JSON object per
// line and returns how many it wrote.
func writeSpanLines(w io.Writer, logs []*spanLog) (int, error) {
	bw := bufio.NewWriter(w)
	n := 0
	for _, l := range logs {
		if l == nil {
			continue
		}
		for _, s := range l.spans {
			fmt.Fprintf(bw, `{"id":%d,"parent":%d,"op":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
				s.id, s.parent, s.op, s.name, s.start, s.end)
			n++
		}
	}
	return n, bw.Flush()
}
