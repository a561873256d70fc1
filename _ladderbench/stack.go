package main

import (
	"fmt"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

// shape is the memory layout of a functional workload: tenants laid out
// back to back in one pool-global home space, each with its own pages
// and device frames. Every rung of the ladder is built to this shape, so
// a pool-global address means the same page at every rung.
type shape struct {
	tenants int
	pages   int // home pages per tenant
	frames  int // device frames per tenant
}

func (s shape) tenantBytes() uint64 { return uint64(s.pages * pageSize) }
func (s shape) totalBytes() int     { return s.tenants * s.pages * pageSize }

// split maps a pool-global address to its tenant and slice-local address.
func (s shape) split(addr uint64) (int, securemem.HomeAddr) {
	tb := s.tenantBytes()
	return int(addr / tb), securemem.HomeAddr(addr % tb)
}

func (s shape) engineConfig() securemem.Config {
	return securemem.Config{
		Geometry:    config.Default().Geometry,
		Model:       securemem.ModelSalus,
		TotalPages:  s.pages,
		DevicePages: s.frames,
	}
}

func tenantID(k int) string { return fmt.Sprintf("t%d", k) }

// systemRung is the bottom rung: one single-threaded System per tenant,
// no locks at all.
type systemRung struct {
	sh  shape
	sys []*securemem.System
}

func newSystemRung(sh shape) (*systemRung, error) {
	r := &systemRung{sh: sh}
	for k := 0; k < sh.tenants; k++ {
		s, err := securemem.New(sh.engineConfig())
		if err != nil {
			return nil, err
		}
		r.sys = append(r.sys, s)
	}
	return r, nil
}

func (r *systemRung) read(addr uint64, buf []byte) error {
	k, local := r.sh.split(addr)
	return r.sys[k].Read(local, buf)
}

func (r *systemRung) write(addr uint64, data []byte) error {
	k, local := r.sh.split(addr)
	return r.sys[k].Write(local, data)
}

func (r *systemRung) layer(write bool) string {
	return [2]string{"securemem.System.Read", "securemem.System.Write"}[b2i(write)]
}

// concurrentRung is the sharded Concurrent wrapper, one per tenant.
type concurrentRung struct {
	sh   shape
	engs []*securemem.Concurrent
}

func newConcurrentRung(sh shape) (*concurrentRung, error) {
	r := &concurrentRung{sh: sh}
	for k := 0; k < sh.tenants; k++ {
		c, err := securemem.NewConcurrent(sh.engineConfig())
		if err != nil {
			return nil, err
		}
		r.engs = append(r.engs, c)
	}
	return r, nil
}

func (r *concurrentRung) read(addr uint64, buf []byte) error {
	k, local := r.sh.split(addr)
	return r.engs[k].Read(local, buf)
}

func (r *concurrentRung) write(addr uint64, data []byte) error {
	k, local := r.sh.split(addr)
	return r.engs[k].Write(local, data)
}

func (r *concurrentRung) layer(write bool) string {
	return [2]string{"securemem.Concurrent.Read", "securemem.Concurrent.Write"}[b2i(write)]
}

func (r *concurrentRung) stats() securemem.OpStats {
	var sum securemem.OpStats
	for _, c := range r.engs {
		addOpStats(&sum, c.Stats())
	}
	return sum
}

// tenantRung is the tenant layer: one pool whose slices follow the
// shape, addressed pool-globally through tenant.Tenant.Read/Write.
type tenantRung struct {
	sh   shape
	pool *tenant.Pool
	ts   []*tenant.Tenant
}

func newTenantRung(sh shape) (*tenantRung, error) {
	var slices []tenant.Slice
	for k := 0; k < sh.tenants; k++ {
		slices = append(slices, tenant.Slice{ID: tenantID(k), BasePage: k * sh.pages, Pages: sh.pages, Frames: sh.frames})
	}
	p, err := tenant.NewPool(tenant.Config{Geometry: config.Default().Geometry, Slices: slices})
	if err != nil {
		return nil, err
	}
	return &tenantRung{sh: sh, pool: p, ts: p.Tenants()}, nil
}

func (r *tenantRung) read(addr uint64, buf []byte) error {
	return r.ts[addr/r.sh.tenantBytes()].Read(securemem.HomeAddr(addr), buf)
}

func (r *tenantRung) write(addr uint64, data []byte) error {
	return r.ts[addr/r.sh.tenantBytes()].Write(securemem.HomeAddr(addr), data)
}

func (r *tenantRung) layer(write bool) string {
	return [2]string{"tenant.Tenant.Read", "tenant.Tenant.Write"}[b2i(write)]
}

// stats sums the page-path counters of every tenant engine.
func (r *tenantRung) stats() securemem.OpStats {
	var sum securemem.OpStats
	for _, t := range r.ts {
		addOpStats(&sum, t.Engine().Stats())
	}
	return sum
}

// serveRung is the service layer: one serve.Server per tenant engine,
// interactive requests tagged with the client's tenant tag. Each client
// owns its serveRung (the request is reused).
type serveRung struct {
	sh   shape
	srvs []*serve.Server
	tag  string
	req  serve.Request
}

func newServers(engs []*securemem.Concurrent) ([]*serve.Server, error) {
	var out []*serve.Server
	for _, e := range engs {
		s, err := serve.New(serve.Config{Engine: e})
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

func (r *serveRung) do(addr uint64, write bool, data, buf []byte) error {
	k, local := r.sh.split(addr)
	r.req = serve.Request{Class: serve.Interactive, Addr: local, Write: write, Data: data, Buf: buf, Tenant: r.tag}
	return r.srvs[k].Do(&r.req)
}

func (r *serveRung) read(addr uint64, buf []byte) error   { return r.do(addr, false, nil, buf) }
func (r *serveRung) write(addr uint64, data []byte) error { return r.do(addr, true, data, nil) }
func (r *serveRung) layer(bool) string                    { return "serve.Server.Do" }

// serveReport merges the reports of every server.
func serveReport(srvs []*serve.Server) serve.Report {
	var rep serve.Report
	for _, s := range srvs {
		r := s.Snapshot()
		rep.Merge(&r)
		if r.PeakTier > rep.PeakTier {
			rep.PeakTier = r.PeakTier
		}
	}
	return rep
}

// warm writes content (pool-global) into the given pages through t, so
// the timed phase starts with written pages and a filled device tier.
func warm(t target, content []byte, pages []int) error {
	for _, p := range pages {
		off := p * pageSize
		if err := t.write(uint64(off), content[off:off+pageSize]); err != nil {
			return fmt.Errorf("warm page %d: %w", p, err)
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// addOpStats adds the page-path counters the benchmark reports.
func addOpStats(sum *securemem.OpStats, s securemem.OpStats) {
	sum.Reads += s.Reads
	sum.Writes += s.Writes
	sum.PageMigrationsIn += s.PageMigrationsIn
	sum.PageEvictions += s.PageEvictions
	sum.RelocationReEncryptions += s.RelocationReEncryptions
	sum.CollapseReEncryptions += s.CollapseReEncryptions
	sum.OverflowReEncryptions += s.OverflowReEncryptions
	sum.LazyMACFetches += s.LazyMACFetches
	sum.DirtyChunkWritebacks += s.DirtyChunkWritebacks
	sum.CleanChunksSkipped += s.CleanChunksSkipped
	sum.MACVerifies += s.MACVerifies
	sum.BMTVerifies += s.BMTVerifies
	sum.BMTUpdates += s.BMTUpdates
}

// subOpStats returns b - a for the counters addOpStats covers.
func subOpStats(b, a securemem.OpStats) securemem.OpStats {
	return securemem.OpStats{
		Reads:                   b.Reads - a.Reads,
		Writes:                  b.Writes - a.Writes,
		PageMigrationsIn:        b.PageMigrationsIn - a.PageMigrationsIn,
		PageEvictions:           b.PageEvictions - a.PageEvictions,
		RelocationReEncryptions: b.RelocationReEncryptions - a.RelocationReEncryptions,
		CollapseReEncryptions:   b.CollapseReEncryptions - a.CollapseReEncryptions,
		OverflowReEncryptions:   b.OverflowReEncryptions - a.OverflowReEncryptions,
		LazyMACFetches:          b.LazyMACFetches - a.LazyMACFetches,
		DirtyChunkWritebacks:    b.DirtyChunkWritebacks - a.DirtyChunkWritebacks,
		CleanChunksSkipped:      b.CleanChunksSkipped - a.CleanChunksSkipped,
		MACVerifies:             b.MACVerifies - a.MACVerifies,
		BMTVerifies:             b.BMTVerifies - a.BMTVerifies,
		BMTUpdates:              b.BMTUpdates - a.BMTUpdates,
	}
}

// pagePathMetrics fills the securemem page-path counts for ops client
// ops that produced the counter delta d.
func pagePathMetrics(m map[string]float64, d securemem.OpStats, ops int64) {
	if ops <= 0 {
		return
	}
	per := func(v uint64) float64 { return float64(v) / float64(ops) }
	perK := func(v uint64) float64 { return per(v) * 1e3 }
	m["securemem.device_hit_ratio"] = 1 - per(d.PageMigrationsIn)
	m["securemem.migrations_in_per_kop"] = perK(d.PageMigrationsIn)
	m["securemem.evictions_per_kop"] = perK(d.PageEvictions)
	m["securemem.lazy_mac_fetches_per_kop"] = perK(d.LazyMACFetches)
	m["securemem.dirty_chunk_writebacks_per_kop"] = perK(d.DirtyChunkWritebacks)
	m["securemem.collapse_reenc_per_kop"] = perK(d.CollapseReEncryptions)
	if n := d.CleanChunksSkipped + d.DirtyChunkWritebacks; n > 0 {
		m["securemem.clean_chunk_skip_ratio"] = float64(d.CleanChunksSkipped) / float64(n)
	}
	m["securemem.relocation_reenc"] = float64(d.RelocationReEncryptions)
	m["securemem.mac_verifies_per_op"] = per(d.MACVerifies)
	m["securemem.bmt_verifies_per_op"] = per(d.BMTVerifies)
	m["securemem.bmt_updates_per_op"] = per(d.BMTUpdates)
}

// serveMetrics fills the serve-layer counts from a report.
func serveMetrics(m map[string]float64, rep serve.Report) {
	var sum stats.ServeOps
	for c := range rep.Ops {
		o := rep.Ops[c]
		sum.Served += o.Served
		sum.Shed += o.Shed
		sum.Deadline += o.Deadline
		sum.Overload += o.Overload
		sum.Refused += o.Refused
		sum.Retries += o.Retries
	}
	if n := sum.Attempts(); n > 0 {
		m["serve.served_ratio"] = float64(sum.Served) / float64(n)
		m["serve.retries_per_kop"] = float64(sum.Retries) / float64(n) * 1e3
	}
	m["serve.peak_tier"] = float64(rep.PeakTier)
	m["serve.sim_p99_cycles"] = float64(rep.Latency[serve.Interactive].P(0.99))
}

// tenantMetrics fills the tenant-layer refusal counts of a pool.
func tenantMetrics(m map[string]float64, p *tenant.Pool) {
	var denied, quota uint64
	for _, s := range p.Stats() {
		denied += s.Denied
		quota += s.Quota
	}
	m["tenant.denials"] = float64(denied)
	m["tenant.quota_refusals"] = float64(quota)
}
