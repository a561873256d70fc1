package experiments

import (
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// sharedRunner memoises runs across tests so the quick campaign executes
// once.
var sharedRunner = NewRunner(Quick())

func TestFig3MotivationSlowdown(t *testing.T) {
	res, err := sharedRunner.Fig3()
	if err != nil {
		t.Fatal(err)
	}
	gm := res.Summary["geomean slowdown (paper: 2.04)"]
	if gm <= 1.15 {
		t.Errorf("geomean slowdown %.3f: location-coupled security shows no migration cost", gm)
	}
	if len(res.Table.Rows) != len(sharedRunner.Settings.Workloads) {
		t.Errorf("rows = %d, want %d", len(res.Table.Rows), len(sharedRunner.Settings.Workloads))
	}
}

func TestFig10Improvement(t *testing.T) {
	res, err := sharedRunner.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	gm := res.Summary["geomean improvement %% (paper: 29.94)"]
	if gm <= 5 {
		t.Errorf("geomean improvement %.2f%%, want clearly positive", gm)
	}
	max := res.Summary["max improvement %% (paper: 190.43)"]
	if max < gm {
		t.Errorf("max %.2f%% below geomean %.2f%%", max, gm)
	}
}

func TestFig10WinnersAndLosers(t *testing.T) {
	// The paper's explanation: low page-coverage workloads (nw, btree)
	// gain more than full-coverage ones (backprop, sgemm).
	res, err := sharedRunner.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	ratio := map[string]float64{}
	for _, row := range res.Table.Rows {
		v, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatal(err)
		}
		ratio[row[0]] = v
	}
	for _, winner := range []string{"nw", "btree"} {
		for _, loser := range []string{"backprop", "sgemm"} {
			if ratio[winner] <= ratio[loser] {
				t.Errorf("%s (%.3f) should gain more than %s (%.3f)",
					winner, ratio[winner], loser, ratio[loser])
			}
		}
	}
}

func TestFig11TrafficReduction(t *testing.T) {
	res, err := sharedRunner.Fig11()
	if err != nil {
		t.Fatal(err)
	}
	mean := res.Summary["mean normalised traffic (paper: 0.4779)"]
	if mean >= 1.0 {
		t.Errorf("mean normalised traffic %.3f: no reduction", mean)
	}
	min := res.Summary["min normalised traffic (paper: 0.1771)"]
	if min > mean {
		t.Errorf("min %.3f above mean %.3f", min, mean)
	}
	if min <= 0 {
		t.Errorf("min %.3f: salus moved no security traffic at all", min)
	}
}

func TestFig12BandwidthSavings(t *testing.T) {
	res, err := sharedRunner.Fig12()
	if err != nil {
		t.Fatal(err)
	}
	if res.Summary["mean CXL utilisation saved, pp (paper: 14.92)"] <= 0 {
		t.Error("no CXL bandwidth saved")
	}
	if res.Summary["mean device utilisation saved, pp (paper: 2.05)"] <= 0 {
		t.Error("no device bandwidth saved")
	}
}

func TestFig13Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	res, err := sharedRunner.Fig13()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Table.Rows))
	}
	// Salus must win at every ratio.
	for ratio, imp := range res.Summary {
		if imp <= 0 {
			t.Errorf("%s: improvement %.2f%%, want positive", ratio, imp)
		}
	}
	// The win shrinks when the CXL link stops being scarce (1/4 vs 1/32).
	if res.Summary["improvement % at 1/4"] >= res.Summary["improvement % at 1/32"] {
		t.Errorf("improvement at 1/4 (%.2f) not below 1/32 (%.2f)",
			res.Summary["improvement % at 1/4"], res.Summary["improvement % at 1/32"])
	}
}

func TestFig14Sweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	res, err := sharedRunner.Fig14()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Table.Rows))
	}
	// Less resident footprint -> more migration -> bigger Salus win.
	at20 := res.Summary["improvement % at 20%"]
	at50 := res.Summary["improvement % at 50%"]
	if at20 <= at50 {
		t.Errorf("improvement at 20%% (%.2f) not above 50%% (%.2f)", at20, at50)
	}
}

func TestAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation is slow")
	}
	res, err := sharedRunner.Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Table.Rows))
	}
	full := res.Summary["+ fine-grained dirty tracking (full Salus)"]
	countersOnly := res.Summary["interleaving-friendly counters"]
	if full <= countersOnly {
		t.Errorf("full Salus (%.2f%%) not above counters-only (%.2f%%)", full, countersOnly)
	}
}

func TestTables(t *testing.T) {
	t1 := Table1(Quick().Cfg)
	if !strings.Contains(t1.String(), "CXL bandwidth") {
		t.Error("Table I missing CXL bandwidth row")
	}
	t2 := Table2(Quick().Cfg)
	if !strings.Contains(t2.String(), "MAC cache") {
		t.Error("Table II missing MAC cache row")
	}
	wt := WorkloadTable(Quick())
	if len(wt.Table.Rows) != len(Quick().Workloads) {
		t.Error("workload table row count wrong")
	}
}

func TestTrafficBreakdown(t *testing.T) {
	res, err := sharedRunner.TrafficBreakdown("nw")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 6 { // 3 models x 2 tiers
		t.Errorf("rows = %d, want 6", len(res.Table.Rows))
	}
	if _, err := sharedRunner.TrafficBreakdown("nosuch"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestRunnerMemoisation(t *testing.T) {
	r := NewRunner(Quick())
	w := r.Settings.Workloads[0]
	a, err := r.run(w, 0, vPlain, r.Settings.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.run(w, 0, vPlain, r.Settings.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical runs not memoised")
	}
}

func TestProgressCallback(t *testing.T) {
	r := NewRunner(Quick())
	var lines []string
	r.Progress = func(s string) { lines = append(lines, s) }
	if _, err := r.run(r.Settings.Workloads[0], 0, vPlain, r.Settings.Cfg); err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 {
		t.Errorf("progress lines = %d, want 1", len(lines))
	}
}

func TestChannelCoverage(t *testing.T) {
	res, err := ChannelCoverage(Default())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(res.Table.Rows))
	}
	// The paper's named winners touch under half their channels per page
	// visit; the named losers touch (nearly) all of them.
	chunksPerPage := float64(Default().Cfg.Geometry.ChunksPerPage())
	for _, name := range []string{"nw", "btree", "lava"} {
		if res.Summary[name] > chunksPerPage/2 {
			t.Errorf("%s touches %.2f chunks/page, want <= %.1f", name, res.Summary[name], chunksPerPage/2)
		}
	}
	for _, name := range []string{"backprop", "sgemm"} {
		if res.Summary[name] < chunksPerPage*0.9 {
			t.Errorf("%s touches %.2f chunks/page, want ~%v", name, res.Summary[name], chunksPerPage)
		}
	}
	// Rows are sorted ascending by coverage.
	if res.Table.Rows[0][0] == "backprop" {
		t.Error("densest workload sorted first")
	}
}

func TestMetaCacheSensitivity(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep is slow")
	}
	res, err := sharedRunner.MetaCacheSensitivity()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(res.Table.Rows))
	}
	// Salus must keep a clear advantage even with 4x metadata caches: the
	// baseline's migration metadata traffic is compulsory.
	if res.Summary["4x (8/32/32 KiB)"] <= 0 {
		t.Errorf("improvement at 4x caches = %.2f%%, want positive", res.Summary["4x (8/32/32 KiB)"])
	}
}

func TestCounterOrganisation(t *testing.T) {
	if testing.Short() {
		t.Skip("study is slow")
	}
	res, err := sharedRunner.CounterOrganisation()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Table.Rows))
	}
	mono := res.Summary["conventional, monolithic counters (SGX-style)"]
	split := res.Summary["conventional, split counters (PSSM-style)"]
	sal := res.Summary["salus (interleaving-friendly + collapsed)"]
	if !(mono < split && split < sal) {
		t.Errorf("ordering violated: mono=%.3f split=%.3f salus=%.3f", mono, split, sal)
	}
}

func TestMigrationGranularity(t *testing.T) {
	if testing.Short() {
		t.Skip("study is slow")
	}
	res, err := sharedRunner.MigrationGranularity()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Table.Rows))
	}
	// Salus must win under both movement schemes (the paper's claim that
	// its design works with either).
	if res.Summary["whole-page"] <= 0 {
		t.Errorf("whole-page improvement = %.2f%%, want positive", res.Summary["whole-page"])
	}
	if res.Summary["predicted partial"] <= 0 {
		t.Errorf("partial improvement = %.2f%%, want positive", res.Summary["predicted partial"])
	}
	// Predicted partial migration must move less data over the link.
	if res.Summary["predicted partial salus CXL data MB"] >= res.Summary["whole-page salus CXL data MB"] {
		t.Errorf("partial migration moved more data: %.2f vs %.2f MB",
			res.Summary["predicted partial salus CXL data MB"], res.Summary["whole-page salus CXL data MB"])
	}
}

func TestRenderFormats(t *testing.T) {
	res := &FigResult{Name: "demo", Summary: map[string]float64{"geomean": 1.25}}
	res.Table.Header = []string{"workload", "value, pct"}
	res.Table.AddRow("nw", `say "hi"`)

	if _, err := ParseFormat("nope"); err == nil {
		t.Error("unknown format accepted")
	}
	for _, name := range []string{"", "text", "json", "csv", "JSON"} {
		if _, err := ParseFormat(name); err != nil {
			t.Errorf("ParseFormat(%q): %v", name, err)
		}
	}

	text, err := res.Render(Text)
	if err != nil || !strings.Contains(text, "demo") {
		t.Errorf("text render: %v / %q", err, text)
	}

	js, err := res.Render(JSON)
	if err != nil {
		t.Fatal(err)
	}
	var decoded struct {
		Name    string             `json:"name"`
		Columns []string           `json:"columns"`
		Rows    [][]string         `json:"rows"`
		Summary map[string]float64 `json:"summary"`
	}
	if err := json.Unmarshal([]byte(js), &decoded); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if decoded.Name != "demo" || len(decoded.Rows) != 1 || decoded.Summary["geomean"] != 1.25 {
		t.Errorf("decoded = %+v", decoded)
	}

	csvOut, err := res.Render(CSV)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csvOut, `"value, pct"`) {
		t.Errorf("comma cell not quoted: %q", csvOut)
	}
	if !strings.Contains(csvOut, `"say ""hi"""`) {
		t.Errorf("quote cell not escaped: %q", csvOut)
	}
	if !strings.Contains(csvOut, "# geomean,1.25") {
		t.Errorf("summary row missing: %q", csvOut)
	}
}

func TestSeedStability(t *testing.T) {
	if testing.Short() {
		t.Skip("study is slow")
	}
	if _, err := sharedRunner.SeedStability(1); err == nil {
		t.Error("single seed accepted")
	}
	res, err := sharedRunner.SeedStability(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Table.Rows))
	}
	// The mechanism must win under every randomisation, and the spread
	// must be small relative to the mean (mechanism, not noise).
	if res.Summary["min improvement %"] <= 0 {
		t.Errorf("min improvement = %.2f%%, want positive under every seed", res.Summary["min improvement %"])
	}
	if res.Summary["spread (max-min) pp"] > res.Summary["mean improvement %"] {
		t.Errorf("spread %.2f pp exceeds mean %.2f%% — improvement is noise-dominated",
			res.Summary["spread (max-min) pp"], res.Summary["mean improvement %"])
	}
}

// TestQuickCampaignGolden renders every `salus-bench -quick -all` result
// as JSON, exactly as the command prints it, and compares the output byte
// for byte with the checked-in BENCH_seed.json. After an intended change
// to a simulated result, regenerate the file with `make bench-baseline`
// and review the diff.
func TestQuickCampaignGolden(t *testing.T) {
	var got strings.Builder
	for _, step := range sharedRunner.Steps(0) {
		res, err := step.Run()
		if err != nil {
			t.Fatalf("%s: %v", step.Key, err)
		}
		out, err := res.Render(JSON)
		if err != nil {
			t.Fatalf("%s: %v", step.Key, err)
		}
		got.WriteString(out + "\n")
	}
	want, err := os.ReadFile("../../BENCH_seed.json")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() == string(want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	i := 0
	for i < len(gl) && i < len(wl) && gl[i] == wl[i] {
		i++
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	t.Fatalf("quick campaign differs from BENCH_seed.json at line %d:\n got %q\nwant %q\n(regenerate with `make bench-baseline` if the change is intended)",
		i+1, at(gl), at(wl))
}
