// Package stats collects the measurements every experiment reports: traffic
// by class and memory tier, instruction throughput, migration activity, and
// security-operation counts.
package stats

import (
	"fmt"
	"sort"
	"strings"
)

// Tier identifies a memory tier.
type Tier int

const (
	// Device is the GPU-local HBM/GDDR memory.
	Device Tier = iota
	// CXL is the CXL-attached expansion memory.
	CXL
	numTiers
)

// String returns the tier name.
func (t Tier) String() string {
	switch t {
	case Device:
		return "device"
	case CXL:
		return "cxl"
	}
	return fmt.Sprintf("tier(%d)", int(t))
}

// Class categorises memory traffic.
type Class int

const (
	// Data is application data traffic (including migration copies).
	Data Class = iota
	// Counter is encryption-counter block traffic.
	Counter
	// MAC is MAC sector traffic.
	MAC
	// BMT is integrity-tree node traffic.
	BMT
	// Mapping is CXL-to-GPU mapping table traffic.
	Mapping
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case Data:
		return "data"
	case Counter:
		return "counter"
	case MAC:
		return "mac"
	case BMT:
		return "bmt"
	case Mapping:
		return "mapping"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// ServeClass identifies a traffic-service client class (salus-serve).
// Order is priority order: lower values are more latency-sensitive and
// are shed last under overload.
type ServeClass int

const (
	// ServeInteractive is latency-sensitive foreground traffic; the
	// degradation tiers never shed it.
	ServeInteractive ServeClass = iota
	// ServeBatch is throughput-oriented traffic, shed only at the
	// deepest degradation tier.
	ServeBatch
	// ServeBulk is background traffic, shed first under pressure.
	ServeBulk
	// NumServeClasses is the fixed class count; per-class arrays are
	// indexed by ServeClass.
	NumServeClasses
)

// String returns the class name.
func (c ServeClass) String() string {
	switch c {
	case ServeInteractive:
		return "interactive"
	case ServeBatch:
		return "batch"
	case ServeBulk:
		return "bulk"
	}
	return fmt.Sprintf("serveclass(%d)", int(c))
}

// ServeOps counts the request outcomes of one client class, or of one
// tenant tag, in service mode. Served + Shed + Deadline + Overload +
// Refused covers every request submitted: a request is exactly one of
// served, shed by a degradation tier, rejected on its deadline, refused
// by admission control, or refused typed by the engine
// (link/fault/ambiguous-write).
type ServeOps struct {
	Served    uint64 // requests completed successfully
	Shed      uint64 // requests shed by a degradation tier (ErrShed)
	Deadline  uint64 // requests rejected on deadline (ErrDeadline)
	Overload  uint64 // requests refused by admission control (ErrOverload)
	Refused   uint64 // engine-level typed refusals (link, fault, ambiguous)
	Retries   uint64 // service-level retries issued for idempotent requests
	Ambiguous uint64 // writes that failed ambiguously (never retried)
}

// Attempts returns every request the class submitted.
func (s *ServeOps) Attempts() uint64 {
	return s.Served + s.Shed + s.Deadline + s.Overload + s.Refused
}

// Availability returns the served fraction of Attempts (1 when nothing
// was submitted).
func (s *ServeOps) Availability() float64 {
	att := s.Attempts()
	if att == 0 {
		return 1
	}
	return float64(s.Served) / float64(att)
}

// Add sums o's counters into s.
func (s *ServeOps) Add(o ServeOps) {
	s.Served += o.Served
	s.Shed += o.Shed
	s.Deadline += o.Deadline
	s.Overload += o.Overload
	s.Refused += o.Refused
	s.Retries += o.Retries
	s.Ambiguous += o.Ambiguous
}

// TenantOps counts one tenant's request outcomes at the pool boundary
// (internal/tenant). Reads+Writes are the attempts that entered the
// tenant's engine; the denial categories are the typed refusals the
// isolation layer returned instead of bytes. Like ServeOps, every field
// is a monotone uint64 and the column set is part of the stable-output
// contract.
type TenantOps struct {
	Name string // tenant identifier ("" renders as "-")

	Reads  uint64 // in-slice reads attempted
	Writes uint64 // in-slice writes attempted

	Denied    uint64 // out-of-slice probes refused typed (ErrTenantDenied)
	Quota     uint64 // ops refused by the tenant op quota (ErrQuota)
	Integrity uint64 // reads refused by MAC/tree verification (spliced ciphertext)
	Faults    uint64 // typed fault/link refusals (transient, poison, link, queue)

	Checkpoints uint64 // per-tenant checkpoint epochs committed
	Recovers    uint64 // per-tenant crash/recover cycles completed
}

// Add sums o's counters into t; the name is the caller's.
func (t *TenantOps) Add(o TenantOps) {
	t.Reads += o.Reads
	t.Writes += o.Writes
	t.Denied += o.Denied
	t.Quota += o.Quota
	t.Integrity += o.Integrity
	t.Faults += o.Faults
	t.Checkpoints += o.Checkpoints
	t.Recovers += o.Recovers
}

// TenantTable renders a per-tenant rollup with a stable column set:
// every column every time, rows sorted by tenant name so map-fed input
// stays deterministic. Ragged input is tolerated — an empty list yields
// a header-only table, unnamed tenants render as "-", duplicate names
// keep their own rows.
func TenantTable(rows []TenantOps) *Table {
	t := &Table{Header: []string{"tenant", "reads", "writes", "denied", "quota", "integrity", "faults", "ckpts", "recovers"}}
	for i := range rows {
		row := &rows[i]
		name := row.Name
		if name == "" {
			name = "-"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", row.Reads), fmt.Sprintf("%d", row.Writes),
			fmt.Sprintf("%d", row.Denied), fmt.Sprintf("%d", row.Quota),
			fmt.Sprintf("%d", row.Integrity), fmt.Sprintf("%d", row.Faults),
			fmt.Sprintf("%d", row.Checkpoints), fmt.Sprintf("%d", row.Recovers))
	}
	t.SortRowsByFirstColumn()
	return t
}

// MigrateOps counts one attested live migration's activity
// (internal/migrate). The sent/skipped split is the resume contract
// made measurable: chunks the destination already verified are skipped,
// never re-streamed. The four rejection counters are the typed-failure
// taxonomy observed at the receiving endpoint — in an honest run all
// four stay zero. Like TenantOps, every field is monotone and the
// column set is part of the stable-output contract.
type MigrateOps struct {
	Tenant string // migrated tenant id ("" renders as "-")

	Rounds        uint64 // delta rounds streamed, including the full bootstrap round
	ChunksSent    uint64 // stream chunks transferred and verified
	ChunksSkipped uint64 // verified chunks not re-sent across resumes
	BytesStreamed uint64 // framed stream bytes delivered
	Retries       uint64 // link-transfer retries (flaps absorbed by backoff)
	Resumes       uint64 // record-level resumes after a lost link came back

	Torn   uint64 // records rejected ErrTornStream (truncation, bit flips)
	Replay uint64 // records rejected ErrReplay (reorder, duplication)
	Attest uint64 // records rejected ErrAttestation (MAC/handshake forgery)
	Fresh  uint64 // records rejected ErrFreshness (epoch/lineage rollback)
}

// Add sums o's counters into m; the tenant name is the caller's.
func (m *MigrateOps) Add(o MigrateOps) {
	m.Rounds += o.Rounds
	m.ChunksSent += o.ChunksSent
	m.ChunksSkipped += o.ChunksSkipped
	m.BytesStreamed += o.BytesStreamed
	m.Retries += o.Retries
	m.Resumes += o.Resumes
	m.Torn += o.Torn
	m.Replay += o.Replay
	m.Attest += o.Attest
	m.Fresh += o.Fresh
}

// MigrateTable renders a migration rollup with the same stable-column
// discipline as TenantTable: every column every time, rows sorted by
// tenant name, ragged input tolerated (empty list renders header-only,
// unnamed rows render as "-", duplicates keep their own rows).
func MigrateTable(rows []MigrateOps) *Table {
	t := &Table{Header: []string{"tenant", "rounds", "sent", "skipped", "bytes", "retries", "resumes", "torn", "replay", "attest", "fresh"}}
	for i := range rows {
		row := &rows[i]
		name := row.Tenant
		if name == "" {
			name = "-"
		}
		t.AddRow(name,
			fmt.Sprintf("%d", row.Rounds), fmt.Sprintf("%d", row.ChunksSent),
			fmt.Sprintf("%d", row.ChunksSkipped), fmt.Sprintf("%d", row.BytesStreamed),
			fmt.Sprintf("%d", row.Retries), fmt.Sprintf("%d", row.Resumes),
			fmt.Sprintf("%d", row.Torn), fmt.Sprintf("%d", row.Replay),
			fmt.Sprintf("%d", row.Attest), fmt.Sprintf("%d", row.Fresh))
	}
	t.SortRowsByFirstColumn()
	return t
}

// SecurityClasses lists the classes counted as security traffic. Mapping
// traffic is bookkeeping for the DRAM cache, present in all models, and is
// not security metadata.
var SecurityClasses = []Class{Counter, MAC, BMT}

// Traffic accumulates bytes moved, indexed by tier and class.
type Traffic struct {
	bytes [numTiers][numClasses]uint64
}

// Add records n bytes of traffic of class c on tier t.
func (tr *Traffic) Add(t Tier, c Class, n uint64) { tr.bytes[t][c] += n }

// Bytes returns the bytes recorded for (tier, class).
func (tr *Traffic) Bytes(t Tier, c Class) uint64 { return tr.bytes[t][c] }

// TierTotal returns all bytes moved on a tier.
func (tr *Traffic) TierTotal(t Tier) uint64 {
	var sum uint64
	for c := Class(0); c < numClasses; c++ {
		sum += tr.bytes[t][c]
	}
	return sum
}

// SecurityBytes returns the security-metadata bytes moved on a tier.
func (tr *Traffic) SecurityBytes(t Tier) uint64 {
	var sum uint64
	for _, c := range SecurityClasses {
		sum += tr.bytes[t][c]
	}
	return sum
}

// TotalSecurityBytes returns security-metadata bytes across both tiers.
func (tr *Traffic) TotalSecurityBytes() uint64 {
	return tr.SecurityBytes(Device) + tr.SecurityBytes(CXL)
}

// Total returns all bytes across tiers and classes.
func (tr *Traffic) Total() uint64 { return tr.TierTotal(Device) + tr.TierTotal(CXL) }

// Ops counts security and migration operations.
type Ops struct {
	Encryptions   uint64 // OTP applications on writes / re-encryptions
	Decryptions   uint64
	ReEncryptions uint64 // re-encryptions caused purely by data relocation
	MACComputes   uint64
	MACVerifies   uint64
	BMTVerifies   uint64
	BMTUpdates    uint64

	PagesMigratedIn      uint64 // CXL -> device
	PagesEvicted         uint64 // device -> CXL
	ChunksWrittenBack    uint64
	ChunksMigrated       uint64
	MACFetchesLazy       uint64 // fetch-on-access MAC sector reads
	MappingCacheHits     uint64
	MappingCacheMisses   uint64
	MappingInvalidations uint64 // directed invalidation messages sent to GPC mapping caches
}

// Run is the full measurement record of one simulation.
type Run struct {
	Workload string
	Model    string

	Cycles       uint64
	Instructions uint64
	MemRequests  uint64

	Traffic Traffic
	Ops     Ops

	// BusyCycles per tier: cycles the tier's servers spent serving, used
	// for bandwidth-utilisation figures.
	DeviceBusyCycles uint64
	CXLBusyCycles    uint64

	// CacheHitRates holds metadata-cache sector hit rates (0..1) keyed by
	// "<side>.<class>", when the security engine reports them.
	CacheHitRates map[string]float64
}

// IPC returns instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// String renders a compact single-run summary.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "workload=%s model=%s cycles=%d instructions=%d ipc=%.4f\n",
		r.Workload, r.Model, r.Cycles, r.Instructions, r.IPC())
	for t := Tier(0); t < numTiers; t++ {
		fmt.Fprintf(&b, "  %-6s total=%dB security=%dB", t, r.Traffic.TierTotal(t), r.Traffic.SecurityBytes(t))
		for c := Class(0); c < numClasses; c++ {
			fmt.Fprintf(&b, " %s=%dB", c, r.Traffic.Bytes(t, c))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "  migrations in=%d evictions=%d chunksBack=%d reenc=%d lazyMAC=%d\n",
		r.Ops.PagesMigratedIn, r.Ops.PagesEvicted, r.Ops.ChunksWrittenBack,
		r.Ops.ReEncryptions, r.Ops.MACFetchesLazy)
	if len(r.CacheHitRates) > 0 {
		keys := make([]string, 0, len(r.CacheHitRates))
		for k := range r.CacheHitRates {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("  metadata cache hit rates:")
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.2f", k, r.CacheHitRates[k])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Table is a simple column-aligned text table used by the bench harness.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns. Rows may be ragged —
// shorter or longer than the header — and empty; extra columns render
// under an empty header cell rather than panicking.
func (t *Table) String() string {
	ncols := len(t.Header)
	for _, row := range t.Rows {
		if len(row) > ncols {
			ncols = len(row)
		}
	}
	widths := make([]int, ncols)
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// SortRowsByFirstColumn orders rows lexicographically by their first cell,
// keeping output stable across map iteration order. Empty rows sort first.
func (t *Table) SortRowsByFirstColumn() {
	key := func(row []string) string {
		if len(row) == 0 {
			return ""
		}
		return row[0]
	}
	sort.SliceStable(t.Rows, func(i, j int) bool { return key(t.Rows[i]) < key(t.Rows[j]) })
}
