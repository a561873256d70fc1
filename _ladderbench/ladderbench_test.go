package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"github.com/salus-sim/salus/internal/experiments"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// benchmarkFile mirrors the parts of ../BENCHMARK.json the catalogue
// must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(endToEnd(), perLayer()...) {
		if !nameRE.MatchString(m.name) {
			t.Errorf("metric name %q does not match %s", m.name, nameRE)
		}
		if !unitRE.MatchString(m.unit) {
			t.Errorf("metric %s: unit %q does not match %s", m.name, m.unit, unitRE)
		}
		if seen[m.name] {
			t.Errorf("metric %s catalogued twice", m.name)
		}
		seen[m.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range bf.Workloads {
		wl = append(wl, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(wl, want) {
		t.Errorf("BENCHMARK.json workloads %v, program runs %v", wl, want)
	}
	type nu struct{ name, unit string }
	var e2e, file []nu
	for _, m := range endToEnd() {
		e2e = append(e2e, nu{m.name, m.unit})
	}
	for _, m := range bf.EndToEnd {
		file = append(file, nu{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !reflect.DeepEqual(e2e, file) {
		t.Errorf("end-to-end metrics differ:\nprogram %v\nfile    %v", e2e, file)
	}
	var pl, pfile []nu
	for _, m := range perLayer() {
		pl = append(pl, nu{m.name, m.unit})
	}
	for _, m := range bf.PerLayer {
		pfile = append(pfile, nu{m.Name, m.Unit})
	}
	if !reflect.DeepEqual(pl, pfile) {
		t.Errorf("per-layer metrics differ:\nprogram %v\nfile    %v", pl, pfile)
	}
}

func TestStreamDeterministic(t *testing.T) {
	sp := streamSpec{pages: pageRange(3, 17), writeOneIn: 4, n: 5000}
	a, b := genStream(42, sp), genStream(42, sp)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different streams")
	}
	if reflect.DeepEqual(a, genStream(43, sp)) {
		t.Fatal("different seeds gave the same stream")
	}
	if subSeed(42, "x", 1) != subSeed(42, "x", 1) || subSeed(42, "x", 1) == subSeed(42, "x", 2) {
		t.Fatal("subSeed is not a deterministic function of its inputs")
	}
	for _, o := range a.ops {
		if p := int(o.addr) / pageSize; p < 3 || p >= 20 || o.addr%opBytes != 0 {
			t.Fatalf("op address %d outside the owned pages or not sector aligned", o.addr)
		}
	}
	m := interleave([]*stream{a, genStream(7, sp)})
	if len(m.ops) != 2*sp.n || m.ops[0].addr != a.ops[0].addr {
		t.Fatalf("interleave: %d ops, first %d", len(m.ops), m.ops[0].addr)
	}
}

// TestOracleFlagsCorruptedShadow drives a real engine: with an honest
// shadow every read matches, with a corrupted one reads are flagged.
func TestOracleFlagsCorruptedShadow(t *testing.T) {
	sh := shape{tenants: 2, pages: 8, frames: 4}
	pages := pageRange(0, 16)
	content := fillBytes(1, sh.totalBytes())
	st := genStream(5, streamSpec{pages: pages, writeOneIn: 4, n: 2000})

	run := func(corrupt bool) *client {
		cr, err := newConcurrentRung(sh)
		if err != nil {
			t.Fatal(err)
		}
		if err := warm(cr, content, pages); err != nil {
			t.Fatal(err)
		}
		shadow := append([]byte(nil), content...)
		if corrupt {
			for i := 0; i < len(shadow); i += opBytes {
				shadow[i] ^= 0x80
			}
		}
		c := &client{t: cr, st: st, shadow: shadow}
		c.run(time.Now().Add(time.Minute), int64(len(st.ops)))
		return c
	}
	if c := run(false); c.failed() != 0 {
		t.Fatalf("honest shadow: %d errors, %d mismatches", c.fails, c.mismatches)
	}
	if c := run(true); c.mismatches == 0 {
		t.Fatal("corrupted shadow: no read was flagged")
	}
}

func TestBuildResultRejectsMissingOrZeroMetrics(t *testing.T) {
	full := map[string]float64{}
	for _, m := range endToEnd() {
		full[m.name] = 1
	}
	if _, err := buildResult(&outcome{attempted: 1, metrics: full}, endToEnd()); err != nil {
		t.Fatalf("complete metrics rejected: %v", err)
	}
	zero := map[string]float64{}
	for k, v := range full {
		zero[k] = v
	}
	zero["op_p99_us"] = 0
	if _, err := buildResult(&outcome{attempted: 1, metrics: zero}, endToEnd()); err == nil {
		t.Fatal("a zero end-to-end metric was accepted")
	}
	delete(zero, "op_p99_us")
	if _, err := buildResult(&outcome{attempted: 1, metrics: zero}, endToEnd()); err == nil {
		t.Fatal("a missing end-to-end metric was accepted")
	}
	res, err := buildResult(&outcome{attempted: 1, failed: 1, metrics: full}, endToEnd())
	if err != nil || res.Correct {
		t.Fatalf("a failed op must make the run incorrect (correct=%v, err=%v)", res.Correct, err)
	}
}

// TestFig10GainMatchesRunner holds the replayed inputs to the runner:
// the gain must equal what salus-bench prints, here at quick settings.
func TestFig10GainMatchesRunner(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two quick Fig. 10 campaigns")
	}
	s := experiments.Quick()
	in, err := materialise(s)
	if err != nil {
		t.Fatal(err)
	}
	calls, err := in.campaign(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := fig10Gain(calls, len(s.Workloads))
	if err != nil {
		t.Fatal(err)
	}
	fig, err := experiments.NewRunner(s).Fig10()
	if err != nil {
		t.Fatal(err)
	}
	want, ok := fig.Summary["geomean improvement %% (paper: 29.94)"]
	if !ok {
		t.Fatalf("runner summary has no geomean key: %v", fig.Summary)
	}
	if got != want {
		t.Fatalf("replayed gain %v, runner gain %v", got, want)
	}
}
