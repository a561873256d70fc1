package check

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"sync"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/migrate"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/serve"
	"github.com/salus-sim/salus/internal/stats"
	"github.com/salus-sim/salus/internal/tenant"
)

// roleMigrant is the tenant being moved between hosts; every pool also
// hosts a roleBystander sibling whose bytes and availability must never
// move while the migrant is streamed, attacked, crashed, and retired.
const roleMigrant = "migrant"

// MigratePlan configures the attested live-migration campaign
// (salus-check -migrate): per seed it drives an honest migration held
// to a differential oracle, a cutover under live service traffic, a
// man-in-the-middle phase attacking every record boundary of a recorded
// stream tape, endpoint crashes at every stream boundary, a link-flap
// session that must park resumable and complete, and the retirement of
// the migrated-away source identity — with bystander tenants on every
// pool asserted zero-blast-radius throughout.
type MigratePlan struct {
	Campaign

	// PagesPerTenant / FramesPerTenant / Shards size each tenant slice;
	// frames below pages forces device-tier churn into the stream.
	PagesPerTenant  int
	FramesPerTenant int
	Shards          int
	Geometry        config.Geometry
	QueueCap        int

	// ChunkSize is the migration stream chunk payload; MaxRounds caps
	// sync rounds including the final quiesced one.
	ChunkSize int
	MaxRounds int

	// WriteBursts scales the pre-migration write traffic (and the
	// mid-park dirtying bursts) per phase.
	WriteBursts int

	// ServeSpan is the minimum number of fronting-server requests the
	// cutover-under-load phase drives before the campaign lets the
	// client stop (the client keeps serving while the migration runs,
	// so the realised count is usually higher).
	ServeSpan int
}

// DefaultMigratePlan is the CI smoke budget.
func DefaultMigratePlan() MigratePlan {
	return MigratePlan{
		Campaign: Campaign{Seeds: 8, FirstSeed: 1},

		PagesPerTenant:  8,
		FramesPerTenant: 4,
		Shards:          2,
		Geometry:        checkGeometry,
		QueueCap:        4,

		ChunkSize:   4096,
		MaxRounds:   4,
		WriteBursts: 24,
		ServeSpan:   48,
	}
}

// MigrateResult summarises a RunMigrate campaign.
type MigrateResult struct {
	Verdict
	Migrations    int // honest migrations completed (oracle-verified)
	ServeRequests int // requests served through the fronting server across cutovers

	Attacks         int // adversarial stream deliveries driven
	TypedRejections int // attacks refused with a typed migrate error
	CrashCuts       int // endpoint crashes simulated at stream boundaries
	Resumes         int // link-loss parks resumed to completion
	Retries         int // link refusals absorbed by capped backoff
	Destroyed       int // migrated-away source identities retired

	// Aggregate sums the per-seed migration counters (honest sessions
	// plus the typed rejections the attacked receivers recorded).
	Aggregate []stats.MigrateOps
}

// Table renders the aggregate migration counters.
func (r *MigrateResult) Table() string {
	return stats.MigrateTable(r.Aggregate).String()
}

// RunMigrate runs plan.Seeds migration sessions. Like the other
// campaign runners it stops after the first seed that records
// violations, so the failing seed is the first line of the report.
func RunMigrate(plan MigratePlan) MigrateResult {
	res := MigrateResult{Aggregate: []stats.MigrateOps{{Tenant: roleMigrant}}}
	plan.each(func(seed int64) (string, bool) {
		b := res
		ok := res.record(seed, runMigrateSeed(plan, seed, &res))
		return fmt.Sprintf("%d migrations, %d serve reqs, %d/%d attacks refused typed, %d crash cuts, %d resumes (%d retries), %d retired",
			res.Migrations-b.Migrations, res.ServeRequests-b.ServeRequests, res.TypedRejections-b.TypedRejections,
			res.Attacks-b.Attacks, res.CrashCuts-b.CrashCuts, res.Resumes-b.Resumes, res.Retries-b.Retries,
			res.Destroyed-b.Destroyed), ok
	})
	return res
}

// migrateNonce derives the deterministic per-phase session nonce.
func migrateNonce(seed int64, phase byte) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprintf("salus-migrate-campaign:%d:%d", seed, phase)))
}

// migrateMasters derives the per-seed pool master MAC key shared by
// every host in the seed — the precondition for no-re-encryption
// migration (and the thing the alien-host attestation probe violates).
func migrateMasters(seed int64) []byte {
	k := sha256.Sum256([]byte(fmt.Sprintf("salus-migrate-masters:%d", seed)))
	return k[:]
}

// migratePool builds one host: the migrant slice and, optionally, a
// bystander sibling slice.
func migratePool(plan MigratePlan, mac []byte, withBystander bool) (*tenant.Pool, error) {
	slices := []tenant.Slice{
		{ID: roleMigrant, BasePage: 0, Pages: plan.PagesPerTenant,
			Frames: plan.FramesPerTenant, Shards: plan.Shards},
	}
	if withBystander {
		slices = append(slices, tenant.Slice{ID: roleBystander, BasePage: plan.PagesPerTenant,
			Pages: plan.PagesPerTenant, Frames: plan.FramesPerTenant, Shards: plan.Shards})
	}
	return tenant.NewPool(tenant.Config{
		Geometry: plan.Geometry,
		Slices:   slices,
		MACKey:   mac,
		QueueCap: plan.QueueCap,
	})
}

// migrateBurst applies n random writes to every tenant in tens
// identically, mirroring them into the plaintext oracle. Writing the
// same bytes to a control tenant on an unrelated pool is what makes the
// post-migration comparison a true differential oracle.
func migrateBurst(rng *rand.Rand, tens []*tenant.Tenant, o *oracle, n int) error {
	for i := 0; i < n; i++ {
		off := rng.Intn(len(o.want) - 128)
		data := make([]byte, 16+rng.Intn(96))
		rng.Read(data)
		for _, t := range tens {
			if err := t.Write(t.Base()+securemem.HomeAddr(off), data); err != nil {
				return fmt.Errorf("write @%d on %s: %w", off, t.ID(), err)
			}
		}
		o.write(uint64(off), data)
	}
	return nil
}

// migrateVerify compares a tenant's whole slice against the oracle,
// page by page, and returns the first divergence or "".
func migrateVerify(t *tenant.Tenant, o *oracle, ps int) string {
	return o.sweep(ps, "read", func(off uint64, buf []byte) error {
		return t.Read(t.Base()+securemem.HomeAddr(off), buf)
	})
}

// migrantRequest is an interactive request at offset off of the
// migrant's slice, with a deadline that never expires.
func migrantRequest(off int) *serve.Request {
	return &serve.Request{Class: serve.Interactive, Addr: securemem.HomeAddr(off), Tenant: roleMigrant, Deadline: 1 << 40}
}

// migrateBystander seeds one bystander slice and returns its
// post-seeding digest — the fingerprint that must never move.
func migrateBystander(t *tenant.Tenant, seed int64) ([32]byte, error) {
	data := bytes.Repeat([]byte{0xb5 ^ byte(seed)}, 128)
	if err := t.Write(t.Base()+securemem.HomeAddr(64), data); err != nil {
		return [32]byte{}, err
	}
	return t.StateDigestFromScratch(), nil
}

// runMigrateSeed runs one seed's full phase sequence, folds its
// counters into res and returns its violations.
func runMigrateSeed(plan MigratePlan, seed int64, res *MigrateResult) []string {
	var vs []string
	fail := func(format string, a ...any) { vs = append(vs, fmt.Sprintf(format, a...)) }
	agg := &res.Aggregate[0]
	ps := plan.Geometry.PageSize
	size := plan.PagesPerTenant * ps
	if plan.PagesPerTenant < 2 || plan.ChunkSize < 64 || plan.MaxRounds < 2 ||
		plan.WriteBursts < 1 || size < 512 {
		fail("plan sizing: %d pages × %d, chunk %d, %d rounds",
			plan.PagesPerTenant, ps, plan.ChunkSize, plan.MaxRounds)
		return vs
	}
	rng := rand.New(rand.NewSource(seed ^ 0x317a7e))
	mac := migrateMasters(seed)

	mig := func(p *tenant.Pool) *tenant.Tenant {
		t, err := p.Tenant(roleMigrant)
		if err != nil {
			fail("migrant lookup: %v", err)
		}
		return t
	}

	// host builds one pool. A named host also carries a bystander,
	// registered here and re-checked at the end of the seed: digest
	// unmoved, zero denials/faults/quota.
	type witness struct {
		host string
		t    *tenant.Tenant
		dig  [32]byte
	}
	var witnesses []witness
	host := func(name string) *tenant.Pool {
		p, err := migratePool(plan, mac, name != "")
		if err != nil {
			fail("pool setup: %v", err)
			return nil
		}
		if name == "" {
			return p
		}
		t, err := p.Tenant(roleBystander)
		if err != nil {
			fail("%s bystander lookup: %v", name, err)
			return p
		}
		dig, err := migrateBystander(t, seed)
		if err != nil {
			fail("%s bystander seed: %v", name, err)
			return p
		}
		witnesses = append(witnesses, witness{name, t, dig})
		return p
	}
	// session is one migration's stream configuration.
	session := func(src *tenant.Pool, t *tenant.Tenant, dst *tenant.Pool, phase byte) migrate.Config {
		return migrate.Config{SourcePool: src, Source: t, DestPool: dst,
			ChunkSize: plan.ChunkSize, MaxRounds: plan.MaxRounds, Nonce: migrateNonce(seed, phase)}
	}

	// --- Phase A: honest migration hostA → hostB, held to a
	// differential oracle: an identical write history applied to a
	// control tenant on an uninvolved pool must read back byte-identical
	// from the migrated destination. ---
	hostA, hostB, control := host("hostA"), host("hostB"), host("control")
	if len(vs) > 0 {
		return vs
	}
	srcT, ctlT := mig(hostA), mig(control)
	oracle := newOracle(uint64(size))
	if err := migrateBurst(rng, []*tenant.Tenant{srcT, ctlT}, oracle, plan.WriteBursts); err != nil {
		fail("phase A traffic: %v", err)
		return vs
	}
	opsA, err := migrate.Run(session(hostA, srcT, hostB, 'a'))
	agg.Add(opsA)
	if err != nil {
		fail("phase A migration failed: %v", err)
		return vs
	}
	dstT := mig(hostB)
	if why := migrateVerify(dstT, oracle, ps); why != "" {
		fail("phase A destination vs oracle: %s", why)
	}
	if why := migrateVerify(ctlT, oracle, ps); why != "" {
		fail("phase A control vs oracle: %s", why)
	}
	if sd, dd := srcT.StateDigestFromScratch(), dstT.StateDigestFromScratch(); sd != dd {
		fail("phase A source/destination digests diverge after cutover")
	}
	res.Migrations++

	// --- Phase F (early, on purpose): the migrated-away source
	// identity is retired. Keys zeroized, frames reclaimed, every
	// later op typed ErrTenantClosed — and the destination plus the
	// source-pool bystander keep serving as if nothing happened. ---
	if err := hostA.DestroyTenant(roleMigrant); err != nil {
		fail("destroy migrated-away source: %v", err)
	}
	if err := srcT.Read(srcT.Base(), make([]byte, 32)); !errors.Is(err, tenant.ErrTenantClosed) {
		fail("read after destroy: got %v, want ErrTenantClosed", err)
	}
	if got := hostA.ReclaimedFrames(); got != plan.FramesPerTenant {
		fail("destroy reclaimed %d frames, want %d", got, plan.FramesPerTenant)
	}
	if why := migrateVerify(dstT, oracle, ps); why != "" {
		fail("destination after source retirement: %s", why)
	}
	res.Destroyed++

	// --- Phase B: cutover under live service traffic. A serve.Server
	// fronts the hostB migrant engine while a client stream keeps
	// reading and writing; the migration to hostC runs concurrently and
	// its final round executes inside WithQuiescedSwap, so every
	// request lands entirely pre-cutover on hostB or post-cutover on
	// hostC. The client's oracle is updated only in OnDone (under the
	// engine lock), which is exactly the consistency the swap promises. ---
	hostC := host("hostC")
	if len(vs) > 0 {
		return vs
	}
	srv, err := serve.New(serve.Config{Engine: dstT.Engine()})
	if err != nil {
		fail("phase B server: %v", err)
		return vs
	}
	serveOracle := oracle.clone()
	var (
		clientViolations []string
		clientReqs       int
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		crng := rand.New(rand.NewSource(seed ^ 0x51ee))
		for i := 0; ; i++ {
			// Guarantee a minimum span, then stop on request; the
			// migration usually outlives the minimum so most requests
			// straddle the sync rounds and the swap.
			if i >= plan.ServeSpan {
				select {
				case <-stop:
					return
				default:
				}
			}
			clientReqs++
			off := crng.Intn(size - 128)
			req, kind := migrantRequest(off), "write"
			if crng.Intn(3) == 0 {
				kind, req.Buf = "read", make([]byte, 64)
				req.OnDone = func(e error) {
					if e == nil && serveOracle.diff(uint64(off), req.Buf) >= 0 {
						clientViolations = append(clientViolations,
							fmt.Sprintf("served read @%d diverged from client oracle", off))
					}
				}
			} else {
				req.Write, req.Data = true, make([]byte, 16+crng.Intn(48))
				crng.Read(req.Data)
				req.OnDone = func(e error) {
					if e == nil {
						serveOracle.write(uint64(off), req.Data)
					}
				}
			}
			if err := srv.Do(req); err != nil {
				clientViolations = append(clientViolations,
					fmt.Sprintf("served %s @%d refused: %v", kind, off, err))
			}
		}
	}()
	cfgB := session(hostB, dstT, hostC, 'b')
	cfgB.Swap = srv
	opsB, errB := migrate.Run(cfgB)
	close(stop)
	wg.Wait()
	agg.Add(opsB)
	res.ServeRequests += clientReqs
	vs = append(vs, clientViolations...)
	if errB != nil {
		fail("phase B migration under load failed: %v", errB)
		return vs
	}
	hostCT := mig(hostC)
	if srv.Engine() != hostCT.Engine() {
		fail("phase B cutover did not swap the service onto the destination engine")
	}
	if why := migrateVerify(hostCT, serveOracle, ps); why != "" {
		fail("phase B migrated state vs client oracle: %s", why)
	}
	// Post-cutover traffic must land on hostC: one more served write,
	// read back through the destination tenant.
	probe := migrantRequest(0)
	probe.Write, probe.Data = true, bytes.Repeat([]byte{0xc7}, 32)
	if err := srv.Do(probe); err != nil {
		fail("phase B post-cutover write refused: %v", err)
	} else {
		got := make([]byte, 32)
		if err := hostCT.Read(hostCT.Base(), got); err != nil || !bytes.Equal(got, probe.Data) {
			fail("phase B post-cutover write did not land on the destination host (err %v)", err)
		}
		serveOracle.write(0, probe.Data)
	}
	res.Migrations++
	res.ServeRequests++

	// --- Phase C: man-in-the-middle. Record one honest session's
	// stream tape, then attack every record boundary with every
	// mutation class against fresh destinations. Every delivery must be
	// refused typed, the attacked destination must stay byte-untouched,
	// and the tape source must keep serving throughout. ---
	tapeSrc, tapeDst := host("tapeSrc"), host("")
	if len(vs) > 0 {
		return vs
	}
	tapeT := mig(tapeSrc)
	tapeOracle := newOracle(uint64(size))
	if err := migrateBurst(rng, []*tenant.Tenant{tapeT}, tapeOracle, plan.WriteBursts); err != nil {
		fail("phase C traffic: %v", err)
		return vs
	}
	// The offer is captured before the session so replayed tapes can be
	// re-verified against fresh receivers with the same handshake.
	cfgC := session(tapeSrc, tapeT, tapeDst, 'c')
	tapeNonce := cfgC.Nonce
	offer := migrate.Offer{Measurement: migrate.Measure(tapeSrc, tapeT)}
	var tape [][]byte
	cfgC.Tap = func(_ int, f []byte) []byte {
		tape = append(tape, append([]byte(nil), f...))
		return nil
	}
	opsC, err := migrate.Run(cfgC)
	agg.Add(opsC)
	if err != nil {
		fail("phase C tape recording failed: %v", err)
		return vs
	}
	res.Migrations++
	if len(tape) < 6 {
		fail("phase C tape implausibly short: %d records", len(tape))
		return vs
	}

	// freshDest builds a pristine destination endpoint mid-handshake,
	// exactly as the honest session would have seen it.
	freshDest := func() (*tenant.Pool, *migrate.Receiver, [32]byte) {
		p := host("")
		if p == nil {
			return nil, nil, [32]byte{}
		}
		r, err := migrate.NewReceiver(p, roleMigrant, tapeNonce)
		if err != nil {
			fail("attack receiver: %v", err)
			return nil, nil, [32]byte{}
		}
		if _, err := r.Accept(offer); err != nil {
			fail("attack handshake refused honest offer: %v", err)
			return nil, nil, [32]byte{}
		}
		t, _ := p.Tenant(roleMigrant)
		return p, r, t.StateDigestFromScratch()
	}
	// feed streams frames and returns the first error.
	feed := func(r *migrate.Receiver, frames ...[]byte) error {
		for _, f := range frames {
			if err := r.Feed(f); err != nil {
				return err
			}
		}
		return nil
	}
	untouched := func(p *tenant.Pool, pristine [32]byte, what string) {
		t, _ := p.Tenant(roleMigrant)
		if t.Epoch() != 0 || t.StateDigestFromScratch() != pristine {
			fail("%s left the destination modified", what)
		}
	}
	cp := func(f []byte) []byte { return append([]byte(nil), f...) }

	// Tape-frame layout (see internal/migrate DESIGN §16): 2-byte
	// magic, type, LE seq, LE payload length, payload, CRC32, MAC.
	// The forge mutation flips a payload byte and repairs the CRC so
	// the frame survives to the MAC check.
	forge := func(f []byte) []byte {
		m := cp(f)
		plen := int(binary.LittleEndian.Uint32(m[7:]))
		m[11] ^= 0x40
		binary.LittleEndian.PutUint32(m[11+plen:], crc32.ChecksumIEEE(m[2:11+plen]))
		return m
	}

	type attack struct {
		name string
		// frames builds the delivery sequence for boundary k, or nil
		// when the attack does not apply at k.
		frames func(k int) [][]byte
		// applied reports whether a completed cutover before the attack
		// frame is legitimate (duplicate-after-done only).
		applied func(k int) bool
	}
	attacks := []attack{
		{name: "bitflip", frames: func(k int) [][]byte {
			m := cp(tape[k])
			m[len(m)/2] ^= 0x01
			return append(append([][]byte{}, tape[:k]...), m)
		}},
		{name: "forge", frames: func(k int) [][]byte {
			return append(append([][]byte{}, tape[:k]...), forge(tape[k]))
		}},
		{name: "truncate", frames: func(k int) [][]byte {
			return append(append([][]byte{}, tape[:k]...), tape[k][:len(tape[k])-7])
		}},
		// A dropped record and a reordered pair present the same way at
		// the receiver — the next record arrives at the wrong chain
		// position — so one mutation covers both classes.
		{name: "reorder/drop", frames: func(k int) [][]byte {
			if k+1 >= len(tape) {
				return nil
			}
			return append(append([][]byte{}, tape[:k]...), tape[k+1])
		}},
		{name: "duplicate", frames: func(k int) [][]byte {
			return append(append(append([][]byte{}, tape[:k]...), tape[k]), tape[k])
		}, applied: func(k int) bool { return k == len(tape)-1 }},
	}
	for k := 0; k < len(tape); k++ {
		// Endpoint crash at boundary k: the stream just stops. The
		// destination must be exactly pristine — verified rounds are
		// staged off-pool and nothing reaches the pool before a
		// verified cutover, so there is no half-applied state to clean
		// up on either a source or a destination crash.
		p, r, pristine := freshDest()
		if p == nil {
			return vs
		}
		if err := feed(r, tape[:k]...); err != nil {
			fail("crash cut %d: honest prefix refused: %v", k, err)
			return vs
		}
		if r.Done() {
			fail("crash cut %d: receiver done before the cutover record", k)
		}
		untouched(p, pristine, fmt.Sprintf("crash at boundary %d", k))
		res.CrashCuts++

		for _, a := range attacks {
			frames := a.frames(k)
			if frames == nil {
				continue
			}
			res.Attacks++
			p, r, pristine := freshDest()
			if p == nil {
				return vs
			}
			err := feed(r, frames...)
			if err == nil {
				fail("%s at boundary %d/%d accepted", a.name, k, len(tape))
				continue
			}
			if !streamErrs.has(err) {
				fail("%s at boundary %d refused untyped: %v", a.name, k, err)
				continue
			}
			res.TypedRejections++
			agg.Add(r.Ops())
			// Fail-stop: the poisoned receiver refuses everything after.
			if ferr := r.Feed(tape[len(tape)-1]); ferr == nil {
				fail("%s at boundary %d: receiver served frames after poisoning", a.name, k)
			}
			if a.applied != nil && a.applied(k) {
				continue // cutover legitimately applied before the attack frame
			}
			if r.Done() {
				fail("%s at boundary %d: receiver reports done", a.name, k)
			}
			untouched(p, pristine, fmt.Sprintf("%s at boundary %d", a.name, k))
		}
	}
	// The tape source must have kept serving through every attack —
	// the receivers never touch it, and this proves it.
	if why := migrateVerify(tapeT, tapeOracle, ps); why != "" {
		fail("phase C source after attacks: %s", why)
	}

	// Rollback-to-older-session: replay the full honest tape onto a
	// fresh destination (must verify verbatim — it is an honest
	// stream), then offer the same stale session to the now-migrated
	// destination: refused ErrFreshness before a single frame.
	p, r, _ := freshDest()
	if p == nil {
		return vs
	}
	if err := feed(r, tape...); err != nil || !r.Done() {
		fail("honest tape replay onto fresh destination refused: %v", err)
	} else {
		res.Attacks++
		r2, err := migrate.NewReceiver(p, roleMigrant, tapeNonce)
		if err != nil {
			fail("rollback receiver: %v", err)
		} else if _, err := r2.Accept(offer); !errors.Is(err, migrate.ErrFreshness) {
			fail("stale-session rollback: got %v, want ErrFreshness", err)
		} else {
			res.TypedRejections++
			agg.Add(r2.Ops())
		}
	}

	// Alien host: a destination pool built from different masters is a
	// different key domain; attestation must refuse it at the handshake.
	alien, err := migratePool(plan, migrateMasters(seed^0x7fff), false)
	if err != nil {
		fail("alien pool: %v", err)
		return vs
	}
	res.Attacks++
	opsAl, err := migrate.Run(session(tapeSrc, tapeT, alien, 'x'))
	agg.Add(opsAl)
	if !errors.Is(err, migrate.ErrAttestation) {
		fail("alien-host migration: got %v, want ErrAttestation", err)
	} else {
		res.TypedRejections++
	}
	if why := migrateVerify(tapeT, tapeOracle, ps); why != "" {
		fail("phase C source after alien handshake: %s", why)
	}

	// --- Phase D: link chaos. A scripted outage longer than the retry
	// budget parks the session typed and resumable mid-stream; the
	// source keeps serving (and keeps dirtying pages) while parked, and
	// the resumed session completes without re-streaming verified
	// chunks, delivering the writes made during the outage. ---
	linkSrc, linkDst := host("linkSrc"), host("linkDst")
	if len(vs) > 0 {
		return vs
	}
	linkT := mig(linkSrc)
	linkOracle := newOracle(uint64(size))
	if err := migrateBurst(rng, []*tenant.Tenant{linkT}, linkOracle, plan.WriteBursts); err != nil {
		fail("phase D traffic: %v", err)
		return vs
	}
	from := uint64(3 + rng.Intn(5))
	cfgD := session(linkSrc, linkT, linkDst, 'd')
	cfgD.Link = link.New(&link.ScriptPlan{Windows: []link.Window{
		{From: from, To: from + uint64(4+rng.Intn(8)), State: link.StateDown},
	}}, link.Config{Threshold: 1, Cooldown: 1})
	cfgD.Retry = migrate.RetryPolicy{MaxRetries: 2, BaseBackoff: 1, MaxBackoff: 2}
	s, err := migrate.Start(cfgD)
	if err != nil {
		fail("phase D start: %v", err)
		return vs
	}
	linkDstT := mig(linkDst)
	parked := 0
	err = s.Run()
	for tries := 0; err != nil; tries++ {
		if tries > 32 {
			fail("phase D session did not complete after %d resumes", tries)
			return vs
		}
		if !errors.Is(err, migrate.ErrLinkLost) {
			fail("phase D failed non-resumable: %v", err)
			return vs
		}
		if !s.Resumable() {
			fail("phase D link loss left the session non-resumable")
			return vs
		}
		parked++
		// While parked: destination untouched, source serving — it
		// takes new writes that the resumed stream must deliver.
		if linkDstT.Epoch() != 0 {
			fail("phase D destination advanced while the session was parked")
		}
		if err := migrateBurst(rng, []*tenant.Tenant{linkT}, linkOracle, 4); err != nil {
			fail("phase D mid-park writes: %v", err)
			return vs
		}
		err = s.Run()
	}
	opsD := s.Ops()
	agg.Add(opsD)
	res.Retries += int(opsD.Retries)
	res.Resumes += int(opsD.Resumes)
	if parked == 0 || opsD.Resumes == 0 {
		fail("phase D outage window never parked the session (%d parks, %d resumes)", parked, opsD.Resumes)
	}
	if opsD.ChunksSkipped == 0 {
		fail("phase D resume re-streamed every chunk (none skipped)")
	}
	if why := migrateVerify(linkDstT, linkOracle, ps); why != "" {
		fail("phase D migrated state (incl. mid-park writes) vs oracle: %s", why)
	}
	res.Migrations++

	// --- Phase G: every bystander on every host, untouched. Their
	// digests never moved and they absorbed zero denials, faults, or
	// quota refusals from any migration, attack, crash, or retirement. ---
	for _, w := range witnesses {
		if got := w.t.StateDigestFromScratch(); got != w.dig {
			fail("bystander on %s: state digest moved", w.host)
		}
		ops := w.t.Stats()
		if ops.Denied != 0 || ops.Integrity != 0 || ops.Faults != 0 || ops.Quota != 0 {
			fail("bystander on %s absorbed blast: denied=%d integrity=%d faults=%d quota=%d",
				w.host, ops.Denied, ops.Integrity, ops.Faults, ops.Quota)
		}
		buf := make([]byte, 128)
		if err := w.t.Read(w.t.Base()+securemem.HomeAddr(64), buf); err != nil {
			fail("bystander on %s stopped serving: %v", w.host, err)
		}
	}
	return vs
}
