package stats

import (
	"reflect"
	"strings"
	"testing"
)

func TestTrafficAccumulation(t *testing.T) {
	var tr Traffic
	tr.Add(Device, Data, 100)
	tr.Add(Device, Counter, 10)
	tr.Add(Device, MAC, 20)
	tr.Add(Device, BMT, 5)
	tr.Add(Device, Mapping, 7)
	tr.Add(CXL, Data, 50)
	tr.Add(CXL, MAC, 8)

	if got := tr.Bytes(Device, Data); got != 100 {
		t.Errorf("Bytes(Device, Data) = %d, want 100", got)
	}
	if got := tr.TierTotal(Device); got != 142 {
		t.Errorf("TierTotal(Device) = %d, want 142", got)
	}
	if got := tr.SecurityBytes(Device); got != 35 {
		t.Errorf("SecurityBytes(Device) = %d, want 35 (mapping excluded)", got)
	}
	if got := tr.SecurityBytes(CXL); got != 8 {
		t.Errorf("SecurityBytes(CXL) = %d, want 8", got)
	}
	if got := tr.TotalSecurityBytes(); got != 43 {
		t.Errorf("TotalSecurityBytes = %d, want 43", got)
	}
	if got := tr.Total(); got != 200 {
		t.Errorf("Total = %d, want 200", got)
	}
}

func TestRunIPC(t *testing.T) {
	r := Run{Cycles: 1000, Instructions: 2500}
	if got := r.IPC(); got != 2.5 {
		t.Errorf("IPC = %v, want 2.5", got)
	}
	empty := Run{}
	if got := empty.IPC(); got != 0 {
		t.Errorf("IPC of empty run = %v, want 0", got)
	}
}

func TestRunString(t *testing.T) {
	r := Run{Workload: "bfs", Model: "salus", Cycles: 10, Instructions: 20}
	s := r.String()
	for _, frag := range []string{"workload=bfs", "model=salus", "ipc=2.0000", "device", "cxl"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestTierClassString(t *testing.T) {
	if Device.String() != "device" || CXL.String() != "cxl" {
		t.Error("tier names wrong")
	}
	names := map[Class]string{Data: "data", Counter: "counter", MAC: "mac", BMT: "bmt", Mapping: "mapping"}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
	if s := Tier(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown tier string = %q", s)
	}
	if s := Class(9).String(); !strings.Contains(s, "9") {
		t.Errorf("unknown class string = %q", s)
	}
}

func TestTableRendering(t *testing.T) {
	tab := Table{Header: []string{"workload", "ipc"}}
	tab.AddRow("nw", "1.30")
	tab.AddRow("bfs", "0.95")
	tab.SortRowsByFirstColumn()
	if tab.Rows[0][0] != "bfs" {
		t.Errorf("sort failed: first row %v", tab.Rows[0])
	}
	s := tab.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 4 { // header, rule, two rows
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[0], "workload") {
		t.Errorf("header line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "---") {
		t.Errorf("rule line = %q", lines[1])
	}
}

func TestTableToleratesEmptyAndRaggedRows(t *testing.T) {
	tb := &Table{Header: []string{"name", "value"}}
	tb.AddRow("zeta", "1")
	tb.AddRow()                              // empty row
	tb.AddRow("alpha", "2", "extra", "wide") // wider than the header
	tb.AddRow("mid")                         // narrower than the header

	tb.SortRowsByFirstColumn() // must not panic on the empty row
	if len(tb.Rows[0]) != 0 {
		t.Errorf("empty row should sort first, got %v", tb.Rows[0])
	}
	if tb.Rows[1][0] != "alpha" || tb.Rows[3][0] != "zeta" {
		t.Errorf("rows not sorted: %v", tb.Rows)
	}

	out := tb.String() // must not panic on ragged rows
	for _, want := range []string{"name", "alpha", "extra", "wide", "mid", "zeta"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestTableEmpty(t *testing.T) {
	tb := &Table{}
	tb.SortRowsByFirstColumn()
	if out := tb.String(); out == "" {
		t.Error("empty table should still render the separator line")
	}
}

func TestServeClassString(t *testing.T) {
	want := map[ServeClass]string{ServeInteractive: "interactive", ServeBatch: "batch", ServeBulk: "bulk"}
	for c, name := range want {
		if c.String() != name {
			t.Errorf("ServeClass(%d).String() = %q, want %q", int(c), c.String(), name)
		}
	}
	if got := ServeClass(99).String(); got != "serveclass(99)" {
		t.Errorf("out-of-range class String() = %q", got)
	}
	if NumServeClasses != 3 {
		t.Errorf("NumServeClasses = %d, want 3", NumServeClasses)
	}
}

// TestTenantTableRaggedInput pins the ragged-input contract of the
// per-tenant rollup: an empty tenant list renders header-only, unnamed
// tenants render as "-", duplicate names keep their own rows, and
// map-fed input comes out sorted by name.
func TestTenantTableRaggedInput(t *testing.T) {
	empty := TenantTable(nil).String()
	for _, col := range []string{"tenant", "reads", "writes", "denied", "quota", "integrity", "faults", "ckpts", "recovers"} {
		if !strings.Contains(empty, col) {
			t.Fatalf("empty table missing column %q:\n%s", col, empty)
		}
	}
	if rows := TenantTable(nil).Rows; len(rows) != 0 {
		t.Fatalf("empty tenant list must render header-only, got %d rows", len(rows))
	}

	tab := TenantTable([]TenantOps{
		{Name: "zeta", Reads: 1},
		{Name: "", Quota: 7},
		{Name: "alpha", Denied: 2},
		{Name: "alpha", Recovers: 3}, // duplicate name: its own row survives
	})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d, want 4 (duplicates must not merge)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "-" {
		t.Fatalf("unnamed tenant rendered %q, want \"-\"", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "alpha" || tab.Rows[2][0] != "alpha" || tab.Rows[3][0] != "zeta" {
		t.Fatalf("rows not name-sorted: %v", tab.Rows)
	}
	if got := tab.Rows[0][4]; got != "7" {
		t.Fatalf("unnamed tenant quota cell %q, want 7", got)
	}
}

// TestMigrateTableRaggedInput pins the ragged-input contract of the
// migration rollup, mirroring the TenantTable convention: an empty
// migration list renders header-only, unnamed rows render as "-",
// duplicate names keep their own rows, and map-fed input comes out
// sorted.
func TestMigrateTableRaggedInput(t *testing.T) {
	empty := MigrateTable(nil).String()
	for _, col := range []string{"tenant", "rounds", "sent", "skipped", "bytes", "retries", "resumes", "torn", "replay", "attest", "fresh"} {
		if !strings.Contains(empty, col) {
			t.Fatalf("empty table missing column %q:\n%s", col, empty)
		}
	}
	if rows := MigrateTable(nil).Rows; len(rows) != 0 {
		t.Fatalf("empty migration list must render header-only, got %d rows", len(rows))
	}

	tab := MigrateTable([]MigrateOps{
		{Tenant: "zeta", Rounds: 2},
		{Tenant: "", Retries: 5},
		{Tenant: "alpha", ChunksSent: 9},
		{Tenant: "alpha", Fresh: 1}, // duplicate name: its own row survives
	})
	if len(tab.Rows) != 4 {
		t.Fatalf("rows: %d, want 4 (duplicates must not merge)", len(tab.Rows))
	}
	if tab.Rows[0][0] != "-" {
		t.Fatalf("unnamed migration rendered %q, want \"-\"", tab.Rows[0][0])
	}
	if tab.Rows[1][0] != "alpha" || tab.Rows[2][0] != "alpha" || tab.Rows[3][0] != "zeta" {
		t.Fatalf("rows not name-sorted: %v", tab.Rows)
	}
	if got := tab.Rows[0][5]; got != "5" {
		t.Fatalf("unnamed migration retries cell %q, want 5", got)
	}
}

// fillCounters sets every uint64 field of the struct v points to, the
// i-th to base+i, and returns how many it set.
func fillCounters(v any, base uint64) int {
	rv := reflect.ValueOf(v).Elem()
	n := 0
	for i := 0; i < rv.NumField(); i++ {
		if f := rv.Field(i); f.Kind() == reflect.Uint64 {
			f.SetUint(base + uint64(i))
			n++
		}
	}
	return n
}

// assertSummed checks that every uint64 field of got equals the sum
// fillCounters(base a) + fillCounters(base b) put in, so a counter added to
// the struct but not to Add fails here.
func assertSummed(t *testing.T, got any, a, b uint64) {
	t.Helper()
	rv := reflect.ValueOf(got).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		if f.Kind() != reflect.Uint64 {
			continue
		}
		if want := a + b + 2*uint64(i); f.Uint() != want {
			t.Errorf("%s = %d after Add, want %d", rv.Type().Field(i).Name, f.Uint(), want)
		}
	}
}

func TestTenantOpsAddSumsEveryCounter(t *testing.T) {
	var dst, src TenantOps
	if fillCounters(&dst, 100) == 0 || fillCounters(&src, 1000) == 0 {
		t.Fatal("TenantOps has no counters")
	}
	dst.Name, src.Name = "dst", "src"
	dst.Add(src)
	assertSummed(t, &dst, 100, 1000)
	if dst.Name != "dst" {
		t.Errorf("Add overwrote the name: %q", dst.Name)
	}
}

func TestMigrateOpsAddSumsEveryCounter(t *testing.T) {
	var dst, src MigrateOps
	if fillCounters(&dst, 100) == 0 || fillCounters(&src, 1000) == 0 {
		t.Fatal("MigrateOps has no counters")
	}
	dst.Tenant, src.Tenant = "dst", "src"
	dst.Add(src)
	assertSummed(t, &dst, 100, 1000)
	if dst.Tenant != "dst" {
		t.Errorf("Add overwrote the tenant: %q", dst.Tenant)
	}
}

func TestServeOpsAddSumsEveryCounter(t *testing.T) {
	var dst, src ServeOps
	if fillCounters(&dst, 100) == 0 || fillCounters(&src, 1000) == 0 {
		t.Fatal("ServeOps has no counters")
	}
	dst.Add(src)
	assertSummed(t, &dst, 100, 1000)

	s := ServeOps{Served: 3, Shed: 1, Deadline: 1, Overload: 1, Refused: 2, Retries: 9, Ambiguous: 1}
	if got := s.Attempts(); got != 8 {
		t.Errorf("Attempts() = %d, want 8 (retries and ambiguous are not outcomes)", got)
	}
	if got := s.Availability(); got != 3.0/8 {
		t.Errorf("Availability() = %v, want 3/8", got)
	}
	if got := (&ServeOps{}).Availability(); got != 1 {
		t.Errorf("idle Availability() = %v, want 1", got)
	}
}
