package main

// metricDef is one catalogued metric. The catalogue is the single list
// BENCHMARK.json mirrors; a test holds the two to the same names.
type metricDef struct {
	name     string
	unit     string
	endToEnd bool
}

// endToEnd lists the metrics a --trace 0 run prints, on every workload.
// What an "op" is differs per workload; README.md defines it.
func endToEnd() []metricDef {
	return []metricDef{
		{"ops_per_s", "1/s", true},
		{"op_p50_us", "us", true},
		{"op_p99_us", "us", true},
		{"success_ratio", "ratio", true},
		{"setup_s", "s", true},
		{"peak_rss_mb", "MB", true},
	}
}

// perLayer lists the metrics a --trace 1 run prints, on every workload.
// A workload reports 0 for a layer it does not exercise.
func perLayer() []metricDef {
	var out []metricDef
	add := func(unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit})
		}
	}
	add("ns", "cryptoeng.encrypt_sector_ns", "cryptoeng.verify_mac_ns", "cryptoeng.encrypt_page_ns")
	add("ratio", "cryptoeng.est_share")

	add("ns", "securemem.system_ns_per_op", "securemem.concurrent_ns_per_op", "securemem.lock_overhead_ns")
	add("x", "securemem.parallel_speedup", "securemem.parallel_speedup_gomaxprocs1")
	add("ratio", "securemem.device_hit_ratio")
	add("1/kop", "securemem.migrations_in_per_kop", "securemem.evictions_per_kop",
		"securemem.lazy_mac_fetches_per_kop", "securemem.dirty_chunk_writebacks_per_kop",
		"securemem.collapse_reenc_per_kop")
	add("ratio", "securemem.clean_chunk_skip_ratio")
	add("count", "securemem.relocation_reenc")
	add("1/op", "securemem.mac_verifies_per_op", "securemem.bmt_verifies_per_op", "securemem.bmt_updates_per_op")

	add("ns", "tenant.ns_per_op", "tenant.overhead_ns")
	add("count", "tenant.denials", "tenant.quota_refusals")

	add("ns", "serve.ns_per_op", "serve.overhead_ns")
	add("ratio", "serve.served_ratio")
	add("1/kop", "serve.retries_per_kop")
	add("count", "serve.peak_tier")
	add("cycles", "serve.sim_p99_cycles")

	add("count", "migrate.migrations", "migrate.rounds", "migrate.retries")
	add("MB/s", "migrate.mb_per_s")
	add("ms", "migrate.cutover_pause_ms")
	add("x", "migrate.stream_amplification")
	add("1/MiB", "migrate.chunks_sent_per_mib")
	add("ratio", "migrate.final_round_share")

	add("1/op", "runtime.allocs_per_op", "runtime.allocs_per_op.system", "runtime.allocs_per_op.concurrent",
		"runtime.allocs_per_op.tenant", "runtime.allocs_per_op.serve")
	add("us/kop", "runtime.mutex_wait_us_per_kop")
	add("count", "runtime.gc_cycles")
	add("ms", "runtime.gc_pause_ms")

	add("1/s", "loadgen.offered_per_s")
	add("ms", "loadgen.lag_p99_ms")

	add("s", "system.host_s_none", "system.host_s_baseline", "system.host_s_salus")
	add("ns", "system.host_ns_per_access")
	add("1/s", "system.sim_accesses_per_s")
	add("cycles", "system.sim_cycles_none", "system.sim_cycles_baseline", "system.sim_cycles_salus")
	add("%", "system.fig10_gain_pct", "system.fig10_error_vs_paper_pct")
	add("count", "pagecache.pages_migrated_in_salus", "pagecache.chunks_written_back_baseline",
		"pagecache.chunks_written_back_salus")
	add("ratio", "xbar.mapping_cache_hit_ratio")
	add("count", "secsim.reencryptions_baseline", "secsim.lazy_mac_fetches_salus")
	add("ratio", "secsim.meta_cache_hit_ratio_salus")
	add("ratio", "cxlmem.security_share_baseline", "cxlmem.security_share_salus", "cxlmem.busy_ratio_salus",
		"dram.busy_ratio_salus")

	add("ratio", "bench.error_rate")
	add("%", "trace.overhead_pct")
	add("count", "trace.spans")
	add("count", "env.num_cpu", "env.gomaxprocs")
	return out
}
