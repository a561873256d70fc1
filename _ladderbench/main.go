// Command ladderbench is the repository benchmark: one program that drives
// the protected-memory request stack (crypto engine → securemem.System →
// sharded Concurrent → tenant.Tenant → serve.Server, plus migrate) and the
// paper-figure timing simulator from outside, through their public
// functions only.
//
//	ladderbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set; with --trace 1 a separate traced run
// reports the per-layer set and writes its spans as JSONL under
// .bench_out/. README.md explains each workload and metric.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// runConfig is what every workload receives from the command line.
type runConfig struct {
	seed    int64
	seconds float64
	trace   bool
}

// duration returns share of the run's measuring time.
func (c runConfig) duration(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// outcome is what a workload hands back: op accounting, the checks it
// failed, its metric values by name, and (traced runs) its spans.
type outcome struct {
	attempted int64
	failed    int64
	problems  []string
	metrics   map[string]float64
	spans     []*spanLog
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one benchmark input set; README.md records why each exists.
type workload struct {
	name string
	run  func(runConfig) (*outcome, error)
}

var workloads = []workload{
	{"hot-serve", runHotServe},
	{"tenant-thrash", runTenantThrash},
	{"migrate-live", runMigrateLive},
	{"sim-fig10", runSimFig10},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildResult checks the workload's metrics against the catalogue for
// the run mode: every catalogued metric must be present (per-layer
// metrics a workload does not exercise read 0, see README.md), no
// uncatalogued name may appear, and every value must be finite.
func buildResult(o *outcome, set []metricDef) (result, error) {
	res := result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(set)),
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload attempted no operation")
	}
	known := make(map[string]bool, len(set))
	for _, m := range set {
		known[m.name] = true
		v, ok := o.metrics[m.name]
		if m.endToEnd && (!ok || v <= 0) {
			return res, fmt.Errorf("end-to-end metric %s missing or not positive (%v)", m.name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", m.name)
		}
		res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
	}
	for name := range o.metrics {
		if !known[name] {
			return res, fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return res, nil
}

func main() {
	name := flag.String("workload", "", "workload to run: "+workloadNames())
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measuring time of the run")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	flag.Parse()

	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traced != 0 && *traced != 1) || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "ladderbench: need --workload (%s), --seconds > 0, --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := runConfig{seed: *seed, seconds: *seconds, trace: *traced == 1}
	fmt.Printf("# ladderbench workload=%s seed=%d seconds=%g trace=%d %s\n",
		w.name, cfg.seed, cfg.seconds, *traced, envLine())
	if runtime.NumCPU() < 2 {
		fmt.Println("# WARNING: single-CPU host; two-client and parallel_speedup figures cannot show whether sharding helps")
	}

	o, err := w.run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladderbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	set := endToEnd()
	if cfg.trace {
		set = perLayer()
		path, n, err := writeSpans(w.name, cfg.seed, o.spans)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ladderbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		o.metrics["trace.spans"] = float64(n)
		fmt.Printf("# spans: %d written to %s\n", n, path)
	}
	for _, p := range o.problems {
		fmt.Printf("# CHECK FAILED: %s\n", p)
	}
	res, err := buildResult(o, set)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladderbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ladderbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// envLine records the host every result was measured on, so a record
// taken on one CPU is recognisable as such.
func envLine() string {
	return fmt.Sprintf("go=%s %s/%s num_cpu=%d gomaxprocs=%d",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// spansDir is where traced runs leave their span files, relative to the
// directory the benchmark runs in.
const spansDir = ".bench_out"

// writeSpans writes every span as one JSON line and returns the path
// and the span count.
func writeSpans(workload string, seed int64, logs []*spanLog) (string, int, error) {
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return "", 0, err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.spans.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", 0, err
	}
	n, werr := writeSpanLines(f, logs)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return path, n, werr
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for none); xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// medianSetup runs setup reps times and returns the last result with the
// median set-up time: set-up is repeated so setup_s is a median, not one
// noisy sample.
func medianSetup[T any](reps int, setup func() (T, error)) (T, float64, error) {
	var last T
	var times []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		last = v
	}
	return last, median(times), nil
}
