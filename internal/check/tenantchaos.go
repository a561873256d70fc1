package check

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

// Tenant-chaos mode: the cross-tenant leak campaign that earns the
// multi-tenant pool its isolation contract. Per seed, three tenants
// share one pool — a victim and a bystander serving honest traffic, and
// an attacker that mixes honest ops with hostile probes while the full
// chaos surface (transient faults, link outages, crash/recover cycles)
// is aimed at the attacker alone:
//
//   - slice-straddling and out-of-slice probes of the siblings' live,
//     evicted, and parked pages — every one must fail ErrTenantDenied
//     with the caller's buffer untouched;
//   - replayed ciphertext: a victim home-tier sector spliced verbatim
//     into the attacker's slice must be refused by the attacker's own
//     key domain (ErrIntegrity), never decrypted into victim plaintext;
//   - quota-pressure storms that must drown in typed ErrQuota without
//     starving the siblings.
//
// The contract asserted, per seed and campaign-wide:
//
//   - zero cross-tenant byte leaks: no probe ever returns sibling
//     bytes, and no sibling byte moves because of one;
//   - every hostile probe and every chaos casualty is refused typed —
//     an untyped error anywhere is a violation;
//   - per-tenant differential oracles stay byte-identical after
//     quiesce, modulo bytes the attacker's own failed writes tainted;
//   - blast radius: after the attacker is deliberately wrecked (poison
//     storm, in-slice ciphertext splatter, crash/recover), the victim
//     and bystander StateDigests are bit-identical to their pre-wreck
//     values and their availability never dropped below the SLO floor.

// TenantPlan sizes a hostile-tenant campaign.
type TenantPlan struct {
	Campaign

	WorkersPerTenant int // concurrent worker streams per tenant
	OpsPerWorker     int // op slots each worker drives

	PagesPerTenant  int // home pages per tenant slice
	FramesPerTenant int // device frames per tenant slice
	Shards          int // lock shards per tenant engine
	Geometry        config.Geometry

	// QueueCap bounds each tenant's parked-writeback queue.
	QueueCap int

	// TransientRate/FaultBurst drive the attacker-only fault injector.
	TransientRate float64
	FaultBurst    int

	// EventEvery is the pace-tick period between chaos events;
	// OutageMin/OutageMax bound an attacker link outage in ticks.
	EventEvery           int
	OutageMin, OutageMax int

	// AttackerOpRate/AttackerOpBurst are the attacker's admission quota
	// (the victim and bystander run unmetered).
	AttackerOpRate  float64
	AttackerOpBurst float64

	// HostileEvery makes every n-th attacker op slot a hostile probe.
	HostileEvery int

	// VictimSLO is the availability floor asserted for the victim and
	// the bystander on the campaign aggregate.
	VictimSLO float64
}

// Tenant role names used by the campaign, in the order of its pool's
// slices and of TenantResult.Aggregate.
const (
	roleVictim    = "victim"
	roleBystander = "bystander"
	roleAttacker  = "attacker"
)

// DefaultTenantPlan returns the smoke-budget hostile-tenant campaign
// used by `make tenant-smoke`: 8 sessions × 3 tenants × 3 workers × 70
// op slots over 8-page slices with 2 device frames each. The victim
// floor is strict on purpose: nothing the attacker does — probes,
// storms, outages, crashes — is allowed to cost the healthy tenants
// more than 1% availability.
func DefaultTenantPlan() TenantPlan {
	return TenantPlan{
		Campaign: Campaign{Seeds: 8, FirstSeed: 1},

		WorkersPerTenant: 3,
		OpsPerWorker:     70,

		PagesPerTenant:  8,
		FramesPerTenant: 2,
		Shards:          2,
		Geometry:        checkGeometry,

		QueueCap: 4,

		TransientRate: 0.02,
		FaultBurst:    2,

		EventEvery: 40,
		OutageMin:  8,
		OutageMax:  20,

		AttackerOpRate:  0.5,
		AttackerOpBurst: 8,

		HostileEvery: 5,

		VictimSLO: 0.99,
	}
}

// TenantResult summarises a RunTenant campaign.
type TenantResult struct {
	Verdict
	Workers int // worker streams completed
	Ops     int // op attempts submitted (honest + hostile + storm sub-ops)

	HostileProbes  int // hostile probe attempts driven
	TypedDenials   int // probes refused ErrTenantDenied
	QuotaRefusals  int // ops refused ErrQuota
	ReplayAttacks  int // sibling-ciphertext splices driven
	ReplayRefusals int // splices refused by the key domain, typed

	Checkpoints        int // attacker checkpoints committed
	CheckpointRefusals int // checkpoints refused typed (link down)
	Crashes            int // attacker crash/recover cycles survived
	Outages            int // attacker link outages injected
	TaintedBytes       int // attacker bytes still write-ambiguous after quiesce

	// Aggregate holds the per-role tenant counters summed over seeds,
	// in role order victim, bystander, attacker.
	Aggregate []stats.TenantOps

	// VictimAvailability / BystanderAvailability / AttackerAvailability
	// are ok/attempt ratios over the whole campaign. Only the first two
	// are held to the SLO floor; the attacker's is reported so a plan
	// that accidentally no-ops the chaos is visible.
	VictimAvailability    float64
	BystanderAvailability float64
	AttackerAvailability  float64
}

// Table renders the aggregate per-tenant rollup.
func (r *TenantResult) Table() string {
	return stats.TenantTable(r.Aggregate).String()
}

// RunTenant runs plan.Seeds hostile-tenant sessions and asserts the
// aggregate availability floors. Like the other campaign runners it
// stops after the first session that records violations.
func RunTenant(plan TenantPlan) TenantResult {
	res := TenantResult{Aggregate: []stats.TenantOps{{Name: roleVictim}, {Name: roleBystander}, {Name: roleAttacker}}}
	var avail [3][2]int // per role: ok outcomes, attempts
	plan.each(func(seed int64) (string, bool) {
		res.Workers += 3 * plan.WorkersPerTenant
		b, vb := res, avail[0]
		ok := res.record(seed, runTenantSeed(plan, seed, &res, &avail))
		return fmt.Sprintf(
			"%d ops, %d hostile (%d denied, %d quota), %d/%d replays refused, %d ckpt (%d refused), %d crashes, %d outages, victim avail %.3f",
			res.Ops-b.Ops, res.HostileProbes-b.HostileProbes, res.TypedDenials-b.TypedDenials,
			res.QuotaRefusals-b.QuotaRefusals, res.ReplayRefusals-b.ReplayRefusals, res.ReplayAttacks-b.ReplayAttacks,
			res.Checkpoints-b.Checkpoints, res.CheckpointRefusals-b.CheckpointRefusals, res.Crashes-b.Crashes,
			res.Outages-b.Outages, ratio([2]int{avail[0][0] - vb[0], avail[0][1] - vb[1]})), ok
	})

	res.VictimAvailability = ratio(avail[0])
	res.BystanderAvailability = ratio(avail[1])
	res.AttackerAvailability = ratio(avail[2])
	if !res.Failed() {
		res.slo(roleVictim, res.VictimAvailability, plan.VictimSLO)
		res.slo(roleBystander, res.BystanderAvailability, plan.VictimSLO)
	}
	return res
}

func ratio(a [2]int) float64 {
	if a[1] == 0 {
		return 1
	}
	return float64(a[0]) / float64(a[1])
}

// wreckErrs are the typed refusals a deliberately wrecked attacker may
// surface: its own faults, its quota, and its key domain refusing the
// ciphertext splattered over it.
var wreckErrs = append(append(errSet{}, faultErrs...), tenant.ErrQuota, securemem.ErrIntegrity)

// runTenantSeed runs one hostile-tenant session, folds its counters into
// res and avail (per role: ok outcomes, attempts) and returns its
// violations.
func runTenantSeed(plan TenantPlan, seed int64, res *TenantResult, avail *[3][2]int) []string {
	var vs []string
	fail := func(format string, a ...any) { vs = append(vs, fmt.Sprintf(format, a...)) }
	ps := plan.Geometry.PageSize
	if plan.WorkersPerTenant <= 0 || plan.OpsPerWorker <= 0 || plan.PagesPerTenant < 2 ||
		(plan.PagesPerTenant-1)*ps/plan.WorkersPerTenant < 256 {
		fail("plan sizing: %d workers × %d ops over %d pages", plan.WorkersPerTenant, plan.OpsPerWorker, plan.PagesPerTenant)
		return vs
	}

	// --- Pool: three sibling domains; only the attacker is metered. ---
	slices := []tenant.Slice{
		{ID: roleVictim, BasePage: tenant.AutoBase, Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards},
		{ID: roleBystander, BasePage: tenant.AutoBase, Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards},
		{ID: roleAttacker, BasePage: tenant.AutoBase, Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards,
			OpRate: plan.AttackerOpRate, OpBurst: plan.AttackerOpBurst},
	}
	pool, err := tenant.NewPool(tenant.Config{Geometry: plan.Geometry, Slices: slices, QueueCap: plan.QueueCap})
	if err != nil {
		fail("session setup: %v", err)
		return vs
	}
	victim, _ := pool.Tenant(roleVictim)
	bystander, _ := pool.Tenant(roleBystander)
	attacker, _ := pool.Tenant(roleAttacker)

	// --- Replayed-ciphertext attack, in the reserved last page of each
	// slice (worker regions exclude it, so no oracle ever covers the
	// battleground). The victim parks a secret sector in the home tier;
	// the raw bytes are spliced verbatim into the attacker's slice; the
	// attacker's key domain must refuse them typed and leak nothing. ---
	secret := bytes.Repeat([]byte{0x5e}, plan.Geometry.SectorSize)
	for i := range secret {
		secret[i] ^= byte(seed) + byte(i)
	}
	victimScratch := victim.Base() + securemem.HomeAddr(victim.Size()) - securemem.HomeAddr(ps)
	attackScratch := attacker.Base() + securemem.HomeAddr(attacker.Size()) - securemem.HomeAddr(ps)
	replay := func() {
		res.ReplayAttacks++
		if err := victim.Write(victimScratch, secret); err != nil {
			fail("replay setup: victim write: %v", err)
			return
		}
		if err := victim.Flush(); err != nil {
			fail("replay setup: victim flush: %v", err)
			return
		}
		if _, err := attacker.DrainWritebacks(); err != nil && !chaosErrs.has(err) {
			fail("replay setup: attacker drain: %v", err)
			return
		}
		if err := attacker.Flush(); err != nil && !chaosErrs.has(err) {
			fail("replay setup: attacker flush: %v", err)
			return
		}
		if err := pool.SpliceHome(attackScratch, victimScratch, plan.Geometry.SectorSize); err != nil {
			fail("replay splice: %v", err)
			return
		}
		buf := make([]byte, plan.Geometry.SectorSize)
		err := attacker.Read(attackScratch, buf)
		switch {
		case err == nil:
			fail("cross-tenant replay VERIFIED under the attacker key domain")
		case integrityErrs.has(err), quotaErrs.has(err), chaosErrs.has(err):
			res.ReplayRefusals++
		default:
			fail("replay read failed untyped: %v", err)
		}
		if bytes.Contains(buf, secret[:8]) {
			fail("cross-tenant replay leaked victim bytes into the attacker buffer")
		}
		// Victim's own copy must be untouched by the splice.
		got := make([]byte, len(secret))
		if err := victim.Read(victimScratch, got); err != nil {
			fail("victim re-read after replay: %v", err)
		} else if !bytes.Equal(got, secret) {
			fail("victim bytes moved by a sibling replay")
		}
	}
	replay() // once pre-chaos; repeated by the chaos driver mid-traffic

	// --- Workers: disjoint sub-regions of each slice (minus the
	// reserved scratch page), per-worker differential oracles, in role
	// order. ---
	region := (int(victim.Size()) - ps) / plan.WorkersPerTenant
	var workers []*tenantWorker
	for _, r := range []struct {
		ten, sibling *tenant.Tenant
		role         string
	}{{victim, attacker, roleVictim}, {bystander, victim, roleBystander}, {attacker, victim, roleAttacker}} {
		for w := 0; w < plan.WorkersPerTenant; w++ {
			workers = append(workers, &tenantWorker{
				ten:     r.ten,
				role:    r.role,
				hostile: r.ten == attacker,
				plan:    plan,
				base:    uint64(r.ten.Base()) + uint64(w*region),
				sibling: r.sibling,
				rng:     rand.New(rand.NewSource(seed<<12 ^ int64(len(workers)+1)*0x9e37)),
				o:       newOracle(uint64(region)),
			})
		}
	}
	for _, w := range workers {
		// Seed the oracle from a pre-chaos read of the whole region.
		if err := w.ten.Read(securemem.HomeAddr(w.base), w.o.want); err != nil {
			fail("worker init (%s): %v", w.role, err)
			return vs
		}
	}

	// --- Chaos surface, attacker only. The victim and bystander run
	// with no injector and no link model: any failure they ever see is
	// by definition the attacker's blast radius escaping. ---
	cs := newChaosSession(seed, plan.TransientRate, plan.FaultBurst, fail)
	attacker.AttachLink(cs.freshLink(), nil)
	cs.arm(attacker, 0)

	// --- Checkpoint/crash machinery for the attacker domain. attackMu
	// serialises the maintenance windows against the attacker workers
	// (each op+oracle update runs under the read side), so a checkpoint
	// snapshots engine and oracles at one consistent cut, and a crash
	// swaps the recovered engine and rewinds the oracles atomically. ---
	var attackMu sync.RWMutex
	attackerWorkers := workers[2*plan.WorkersPerTenant:]
	var snaps []*oracle
	checkpoint := func(int) {
		attackMu.Lock()
		defer attackMu.Unlock()
		cs.checkpoint(attacker, func(l *link.Link) { attacker.AttachLink(l, nil) }, func() {
			snaps = snaps[:0]
			for _, w := range attackerWorkers {
				snaps = append(snaps, w.o.clone())
			}
		})
	}
	recoverAttacker := func(journal []byte, root securemem.TrustedRoot) error {
		return pool.RecoverTenant(roleAttacker, journal, root)
	}
	crashRecover := func(int) {
		attackMu.Lock()
		defer attackMu.Unlock()
		cs.crash(func(journal []byte, root securemem.TrustedRoot) error {
			if err := recoverAttacker(journal, root); err != nil {
				return err
			}
			// The reborn engine renegotiates its chaos surface and the
			// worker oracles rewind to the checkpoint cut.
			attacker.AttachLink(cs.freshLink(), nil)
			cs.arm(attacker, int64(cs.crashes+1)<<24)
			for i, w := range attackerWorkers {
				w.o.restore(snaps[i])
			}
			return nil
		})
	}
	replayEvent := func(tick int) {
		attackMu.Lock()
		defer attackMu.Unlock()
		cs.arm(attacker, -1)
		replay()
		cs.arm(attacker, int64(tick)<<4)
	}

	// --- Traffic plus the chaos driver: 4 in 12 event rolls are
	// attacker link outages, 3 checkpoints, 2 crash/recover cycles, 3
	// mid-traffic sibling-ciphertext replays. ---
	cs.drive(len(workers), func(i int) { workers[i].run(cs.pace, &attackMu) },
		rand.New(rand.NewSource(seed^0x7e4a)), plan.EventEvery, plan.OutageMin, plan.OutageMax,
		[]func(int){nil, nil, nil, nil, checkpoint, checkpoint, checkpoint, crashRecover, crashRecover,
			replayEvent, replayEvent, replayEvent})
	cs.quiesce(attacker)

	// --- Verification: per-worker oracles, outcome conservation,
	// availability accounting. ---
	for i, w := range workers {
		vs = append(vs, w.violations...)
		vs = append(vs, w.verifyFinal()...)
		if total := w.ok + w.denied + w.quotaHits + w.faulted + w.integrity + w.untyped; total != w.attempts {
			fail("%s worker outcome conservation: %d outcomes for %d attempts", w.role, total, w.attempts)
		}
		res.Ops += w.attempts
		res.HostileProbes += w.hostileOps
		res.TypedDenials += w.denied
		res.QuotaRefusals += w.quotaHits
		res.TaintedBytes += w.o.tainted()
		a := &avail[i/plan.WorkersPerTenant]
		a[0] += w.ok
		a[1] += w.attempts
	}

	// The healthy tenants must have seen zero denials, zero integrity
	// refusals, zero faults: they never probe and no chaos is theirs.
	for _, ten := range []*tenant.Tenant{victim, bystander} {
		ops := ten.Stats()
		if ops.Denied != 0 || ops.Integrity != 0 || ops.Faults != 0 || ops.Quota != 0 {
			fail("%s absorbed sibling blast: denied=%d integrity=%d faults=%d quota=%d",
				ops.Name, ops.Denied, ops.Integrity, ops.Faults, ops.Quota)
		}
	}

	// --- Blast radius: fingerprint the healthy tenants, then wreck the
	// attacker on purpose — poison storm, in-slice ciphertext splatter,
	// a final crash/recover — and prove the fingerprints never move. ---
	digestV := victim.StateDigestFromScratch()
	digestB := bystander.StateDigestFromScratch()

	poison := fault.NewRatePlan(seed^0x90150, fault.Rates{Poison: 0.5}, 3)
	attacker.AttachFaults(poison, serveEnginePolicy(), nil)
	junk := make([]byte, 64)
	for i := 0; i < 12; i++ {
		addr := attacker.Base() + securemem.HomeAddr(i*ps/2)
		if err := attacker.Read(addr, junk); err != nil && !wreckErrs.has(err) {
			fail("attacker wreck read failed untyped: %v", err)
		}
		if err := attacker.Write(addr, junk); err != nil && !wreckErrs.has(err) {
			fail("attacker wreck write failed untyped: %v", err)
		}
	}
	cs.arm(attacker, -1)
	// Ciphertext splatter within the attacker slice only.
	for i := 0; i < 4; i++ {
		dst := attacker.Base() + securemem.HomeAddr(i*plan.Geometry.ChunkSize)
		if err := pool.SpliceHome(dst, attackScratch, plan.Geometry.SectorSize); err != nil {
			fail("wreck splice: %v", err)
		}
	}
	cs.crash(recoverAttacker)

	if victim.StateDigestFromScratch() != digestV {
		fail("victim state digest moved while the attacker was wrecked")
	}
	if bystander.StateDigestFromScratch() != digestB {
		fail("bystander state digest moved while the attacker was wrecked")
	}
	// And the healthy tenants still serve, byte-correct.
	for _, w := range workers[:2*plan.WorkersPerTenant] {
		vs = append(vs, w.verifyFinal()...)
	}

	for i, ten := range []*tenant.Tenant{victim, bystander, attacker} {
		res.Aggregate[i].Add(ten.Stats())
	}
	res.Checkpoints += cs.checkpoints
	res.CheckpointRefusals += cs.refused
	res.Crashes += cs.crashes
	res.Outages += cs.outages
	return vs
}

// tenantWorker drives one stream of ops against one tenant, keeping a
// differential oracle over its own disjoint sub-region. Attacker
// workers interleave hostile probes; probe outcomes never touch the
// oracle (they are refused before bytes move, and the campaign fails if
// not).
type tenantWorker struct {
	ten     *tenant.Tenant
	role    string
	hostile bool
	plan    TenantPlan
	base    uint64
	sibling *tenant.Tenant
	rng     *rand.Rand
	o       *oracle

	attempts, ok, denied, quotaHits, faulted, integrity, untyped int
	hostileOps                                                   int
	violations                                                   []string
}

// run drives the worker's op slots. Attacker workers take the read side
// of mu around every op so maintenance windows see consistent cuts.
func (w *tenantWorker) run(pace chan<- struct{}, mu *sync.RWMutex) {
	for i := 0; i < w.plan.OpsPerWorker; i++ {
		if w.hostile {
			mu.RLock()
		}
		if w.hostile && w.plan.HostileEvery > 0 && i%w.plan.HostileEvery == w.plan.HostileEvery-1 {
			w.hostileStep()
		} else {
			w.honestStep()
		}
		if w.hostile {
			mu.RUnlock()
		}
		pace <- struct{}{}
	}
}

func (w *tenantWorker) fail(format string, a ...any) {
	w.violations = append(w.violations, fmt.Sprintf("%s worker: %s", w.role, fmt.Sprintf(format, a...)))
}

// classify folds one op outcome into the counters; only nil, typed
// denials, typed quota, typed integrity, and typed fault/link sentinels
// are legal.
func (w *tenantWorker) classify(err error, op string) {
	w.attempts++
	switch {
	case err == nil:
		w.ok++
	case errors.Is(err, tenant.ErrTenantDenied):
		w.denied++
	case quotaErrs.has(err):
		w.quotaHits++
	case integrityErrs.has(err):
		w.integrity++
	case chaosErrs.has(err):
		w.faulted++
	default:
		w.untyped++
		w.fail("%s failed untyped: %v", op, err)
	}
}

// honestStep performs one in-region read or write and maintains the
// oracle. Failed writes taint their range (the bytes are ambiguous —
// old or new); a later verified read resolves the taint by adoption.
func (w *tenantWorker) honestStep() {
	size := len(w.o.want)
	n := min(1+w.rng.Intn(96), size)
	off := w.rng.Intn(size - n + 1)
	addr := securemem.HomeAddr(w.base + uint64(off))
	if w.rng.Intn(2) == 0 {
		buf := make([]byte, n)
		err := w.ten.Read(addr, buf)
		w.classify(err, "read")
		if err != nil {
			return
		}
		if d := w.o.adopt(uint64(off), buf); d >= 0 {
			w.fail("silent divergence at +%d: read %#02x, oracle %#02x", off+d, buf[d], w.o.want[off+d])
		}
		return
	}
	data := make([]byte, n)
	w.rng.Read(data)
	err := w.ten.Write(addr, data)
	w.classify(err, "write")
	switch {
	case err == nil:
		w.o.write(uint64(off), data)
	case quotaErrs.has(err), errors.Is(err, tenant.ErrTenantDenied):
		// Refused before the engine: bytes provably unchanged.
	default:
		w.o.failed(uint64(off), n)
	}
}

// hostileStep performs one hostile probe: an out-of-slice or straddling
// access that must come back ErrTenantDenied with the buffer untouched,
// or a quota-pressure burst that must drown in typed ErrQuota.
func (w *tenantWorker) hostileStep() {
	w.hostileOps++
	switch w.rng.Intn(4) {
	case 0: // probe a sibling's slice (live, evicted, or parked pages)
		addr := w.sibling.Base() + securemem.HomeAddr(w.rng.Intn(int(w.sibling.Size())-64))
		w.probeDenied(addr, "sibling probe")
	case 1: // straddle out of the top of the attacker's own slice
		addr := w.ten.Base() + securemem.HomeAddr(w.ten.Size()) - 16
		w.probeDenied(addr, "straddling probe")
	case 2: // far out of the pool entirely
		addr := securemem.HomeAddr(uint64(1)<<40 + uint64(w.rng.Intn(1<<20)))
		w.probeDenied(addr, "out-of-pool probe")
	default: // quota-pressure storm
		buf := make([]byte, 8)
		for i := 0; i < 8; i++ {
			w.classify(w.ten.Read(securemem.HomeAddr(w.base), buf), "storm read")
		}
	}
}

// probeDenied drives one read and one write probe at a hostile address
// and asserts the typed denial plus byte-silence.
func (w *tenantWorker) probeDenied(addr securemem.HomeAddr, kind string) {
	sentinel := byte(0xEE)
	buf := bytes.Repeat([]byte{sentinel}, 64)
	err := w.ten.Read(addr, buf)
	w.classify(err, kind+" read")
	if err == nil {
		w.fail("%s read at %d returned bytes instead of a denial", kind, addr)
	} else if !errors.Is(err, tenant.ErrTenantDenied) {
		w.fail("%s read at %d: got %v, want ErrTenantDenied", kind, addr, err)
	}
	for _, b := range buf {
		if b != sentinel {
			w.fail("%s read mutated the caller buffer through a denial", kind)
			break
		}
	}
	werr := w.ten.Write(addr, buf)
	w.classify(werr, kind+" write")
	if !errors.Is(werr, tenant.ErrTenantDenied) {
		w.fail("%s write at %d: got %v, want ErrTenantDenied", kind, addr, werr)
	}
}

// verifyFinal re-reads the whole region against the oracle and returns
// its violations. Tainted bytes are skipped (their ambiguity survived
// the session); everything else must match exactly.
func (w *tenantWorker) verifyFinal() []string {
	buf := make([]byte, len(w.o.want))
	// A drained admission bucket refills per attempt; the typed ErrQuota
	// here is the quota working as specified, so ride through it.
	var err error
	for tries := 0; tries < 8; tries++ {
		if err = w.ten.Read(securemem.HomeAddr(w.base), buf); !quotaErrs.has(err) {
			break
		}
	}
	if err != nil {
		return []string{fmt.Sprintf("%s worker final: final read failed: %v", w.role, err)}
	}
	if j := w.o.diff(0, buf); j >= 0 {
		return []string{fmt.Sprintf("%s worker final: divergence at +%d: state %#02x, oracle %#02x", w.role, j, buf[j], w.o.want[j])}
	}
	return nil
}
