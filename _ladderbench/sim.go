package main

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"github.com/salus-sim/salus/internal/experiments"
	"github.com/salus-sim/salus/internal/gpu"
	"github.com/salus-sim/salus/internal/metrics"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/system"
	"github.com/salus-sim/salus/internal/trace"
)

// paperFig10GainPct is the geomean IPC gain of Salus over the
// conventional model the paper reports for Fig. 10.
const paperFig10GainPct = 29.94

// fig10Models is the model order of one Fig. 10 campaign, as the
// experiments runner executes it: the whole suite per model.
var fig10Models = []system.Model{system.ModelNone, system.ModelBaseline, system.ModelSalus}

// replay is a materialised per-SM access stream. The campaign's inputs
// are generated once at set-up; every simulation replays them from the
// start, exactly as the synthetic generator would have produced them.
type replay struct {
	acc []trace.Access
	i   int
	cpm int
}

func (r *replay) Next() (trace.Access, bool) {
	if r.i >= len(r.acc) {
		return trace.Access{}, false
	}
	a := r.acc[r.i]
	r.i++
	return a, true
}

func (r *replay) ComputePerMem() int { return r.cpm }

// simInputs holds every workload's per-SM access streams for settings s,
// built the way system.Run builds them from MaxAccesses.
type simInputs struct {
	s       experiments.Settings
	streams [][]*replay // [workload][sm]
}

func materialise(s experiments.Settings) (*simInputs, error) {
	cfg := s.Cfg
	sms := cfg.GPU.NumSMs
	perSM := 0
	if s.MaxAccesses > 0 {
		perSM = (s.MaxAccesses + sms - 1) / sms
	}
	geo := trace.Geometry{SectorSize: cfg.Geometry.SectorSize, ChunkSize: cfg.Geometry.ChunkSize, PageSize: cfg.Geometry.PageSize}
	in := &simInputs{s: s}
	for _, w := range s.Workloads {
		var per []*replay
		for sm := 0; sm < sms; sm++ {
			st, err := w.NewStream(geo, sm, sms, perSM)
			if err != nil {
				return nil, fmt.Errorf("%s stream %d: %w", w.Name, sm, err)
			}
			r := &replay{cpm: st.ComputePerMem()}
			for a, ok := st.Next(); ok; a, ok = st.Next() {
				r.acc = append(r.acc, a)
			}
			per = append(per, r)
		}
		in.streams = append(in.streams, per)
	}
	return in, nil
}

// simCall is one timed system.Run.
type simCall struct {
	model system.Model
	run   *stats.Run
	host  time.Duration
}

// campaign runs the Fig. 10 grid once, in the runner's order, timing
// every system.Run.
func (in *simInputs) campaign(spans *spanLog, op int64) ([]simCall, error) {
	var root int
	if spans != nil {
		root = spans.begin("experiments.Fig10", 0, op)
		defer spans.end(root)
	}
	var out []simCall
	for _, model := range fig10Models {
		for wi, w := range in.s.Workloads {
			streams := make([]gpu.Stream, len(in.streams[wi]))
			for i, r := range in.streams[wi] {
				streams[i] = &replay{acc: r.acc, cpm: r.cpm}
			}
			var call int
			if spans != nil {
				call = spans.begin("system.Run", spans.id(root), op)
			}
			t0 := time.Now()
			run, err := system.Run(system.Options{
				Cfg: in.s.Cfg, Workload: w, Model: model,
				MaxAccesses: in.s.MaxAccesses, CycleLimit: in.s.CycleLimit, Streams: streams,
			})
			host := time.Since(t0)
			if spans != nil {
				spans.end(call)
			}
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", w.Name, model, err)
			}
			out = append(out, simCall{model: model, run: run, host: host})
		}
	}
	return out, nil
}

// fig10Gain is the geomean IPC gain of Salus over the conventional
// model, computed as the experiments runner's Fig. 10 does.
func fig10Gain(calls []simCall, workloads int) (float64, error) {
	var imp []float64
	for i := 0; i < workloads; i++ {
		none, base, sal := calls[i].run, calls[workloads+i].run, calls[2*workloads+i].run
		bn := base.IPC() / none.IPC()
		sn := sal.IPC() / none.IPC()
		imp = append(imp, sn/bn)
	}
	gm, err := metrics.Geomean(imp)
	if err != nil {
		return 0, err
	}
	return metrics.ImprovementPct(gm), nil
}

// runSimFig10 runs the Fig. 10 campaign as rounds of two concurrent
// repetitions (one per client goroutine), as many rounds as fit the
// measuring time and at least one. Every repetition must produce
// bit-identical simulated results. In a traced run the first
// repetition of each round is traced and the second is not, which
// gives the tracing overhead.
func runSimFig10(cfg runConfig) (*outcome, error) {
	s := experiments.Default()
	in, setupS, err := medianSetup(3, func() (*simInputs, error) { return materialise(s) })
	if err != nil {
		return nil, err
	}
	out := &outcome{metrics: map[string]float64{}}
	nw := len(s.Workloads)
	var reference []simCall
	var hosts []float64
	var tracedHost, plainHost time.Duration
	var spans *spanLog
	if cfg.trace {
		spans = newSpanLog(time.Now(), 0)
		out.spans = []*spanLog{spans}
	}
	var accesses uint64
	var hostByModel [3]time.Duration
	start := time.Now()
	deadline := start.Add(cfg.duration(1))
	for round := 0; ; round++ {
		roundStart := time.Now()
		results := make([][]simCall, clients)
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				var sp *spanLog
				if c == 0 {
					sp = spans
				}
				results[c], errs[c] = in.campaign(sp, int64(round))
			}(c)
		}
		wg.Wait()
		for c := 0; c < clients; c++ {
			out.attempted += int64(len(fig10Models) * nw)
			if errs[c] != nil {
				out.failed++
				out.problem("campaign: %v", errs[c])
				continue
			}
			if reference == nil {
				reference = results[c]
			}
			for i, call := range results[c] {
				if !reflect.DeepEqual(call.run, reference[i].run) {
					out.failed++
					out.problem("%s/%s: simulated results differ between repetitions", call.run.Workload, call.model)
				}
				hosts = append(hosts, call.host.Seconds())
				hostByModel[call.model] += call.host
				accesses += call.run.MemRequests
				if c == 0 {
					tracedHost += call.host
				} else {
					plainHost += call.host
				}
			}
		}
		if out.failed > 0 || time.Now().Add(time.Since(roundStart)).After(deadline) {
			break
		}
	}
	elapsed := time.Since(start)
	if reference == nil {
		return out, nil
	}
	gain, err := fig10Gain(reference, nw)
	if err != nil {
		out.problem("fig10 gain: %v", err)
	}
	fmt.Printf("# sim-fig10: %d system.Run calls in %.2f s; fig10_gain_pct %.2f (paper %.2f, error %+.1f%%)\n",
		len(hosts), elapsed.Seconds(), gain, paperFig10GainPct, (gain-paperFig10GainPct)/paperFig10GainPct*100)
	if !cfg.trace {
		out.metrics["ops_per_s"] = float64(len(hosts)) / elapsed.Seconds()
		out.metrics["op_p50_us"] = quantile(hosts, 0.50) * 1e6
		out.metrics["op_p99_us"] = quantile(hosts, 0.99) * 1e6
		out.metrics["success_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
		out.metrics["setup_s"] = setupS
		out.metrics["peak_rss_mb"] = peakRSSMB()
		return out, nil
	}

	m := out.metrics
	reps := float64(len(hosts)) / float64(len(reference))
	m["system.host_s_none"] = hostByModel[system.ModelNone].Seconds() / reps
	m["system.host_s_baseline"] = hostByModel[system.ModelBaseline].Seconds() / reps
	m["system.host_s_salus"] = hostByModel[system.ModelSalus].Seconds() / reps
	var totalHost time.Duration
	for _, h := range hostByModel {
		totalHost += h
	}
	m["system.host_ns_per_access"] = float64(totalHost.Nanoseconds()) / float64(accesses)
	m["system.sim_accesses_per_s"] = float64(accesses) / totalHost.Seconds()
	m["system.fig10_gain_pct"] = gain
	m["system.fig10_error_vs_paper_pct"] = (gain - paperFig10GainPct) / paperFig10GainPct * 100
	m["trace.overhead_pct"] = (tracedHost.Seconds()/plainHost.Seconds() - 1) * 100
	simLayerMetrics(m, reference, s)
	fillCommon(out)
	return out, nil
}

// simLayerMetrics fills the simulated per-layer counts of one campaign.
// They are exact and repeat bit for bit.
func simLayerMetrics(m map[string]float64, calls []simCall, s experiments.Settings) {
	type agg struct {
		cycles, migratedIn, writtenBack, reenc, lazyMAC uint64
		mapHits, mapMisses, cxlSec, cxlTotal, cxlBusy   uint64
		devBusy                                         uint64
		hitRateSum                                      float64
		hitRates                                        int
	}
	var a [3]agg
	for _, c := range calls {
		g := &a[c.model]
		r := c.run
		g.cycles += r.Cycles
		g.migratedIn += r.Ops.PagesMigratedIn
		g.writtenBack += r.Ops.ChunksWrittenBack
		g.reenc += r.Ops.ReEncryptions
		g.lazyMAC += r.Ops.MACFetchesLazy
		g.mapHits += r.Ops.MappingCacheHits
		g.mapMisses += r.Ops.MappingCacheMisses
		g.cxlSec += r.Traffic.SecurityBytes(stats.CXL)
		g.cxlTotal += r.Traffic.TierTotal(stats.CXL)
		g.cxlBusy += r.CXLBusyCycles
		g.devBusy += r.DeviceBusyCycles
		for _, v := range r.CacheHitRates {
			g.hitRateSum += v
			g.hitRates++
		}
	}
	ratio := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	none, base, sal := a[system.ModelNone], a[system.ModelBaseline], a[system.ModelSalus]
	m["system.sim_cycles_none"] = float64(none.cycles)
	m["system.sim_cycles_baseline"] = float64(base.cycles)
	m["system.sim_cycles_salus"] = float64(sal.cycles)
	m["pagecache.pages_migrated_in_salus"] = float64(sal.migratedIn)
	m["pagecache.chunks_written_back_baseline"] = float64(base.writtenBack)
	m["pagecache.chunks_written_back_salus"] = float64(sal.writtenBack)
	m["xbar.mapping_cache_hit_ratio"] = ratio(sal.mapHits, sal.mapHits+sal.mapMisses)
	m["secsim.reencryptions_baseline"] = float64(base.reenc)
	m["secsim.lazy_mac_fetches_salus"] = float64(sal.lazyMAC)
	if sal.hitRates > 0 {
		m["secsim.meta_cache_hit_ratio_salus"] = sal.hitRateSum / float64(sal.hitRates)
	}
	m["cxlmem.security_share_baseline"] = ratio(base.cxlSec, base.cxlTotal)
	m["cxlmem.security_share_salus"] = ratio(sal.cxlSec, sal.cxlTotal)
	m["cxlmem.busy_ratio_salus"] = ratio(sal.cxlBusy, sal.cycles)
	m["dram.busy_ratio_salus"] = ratio(sal.devBusy, sal.cycles*uint64(s.Cfg.Memory.DeviceChannels))
}
