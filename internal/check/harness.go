package check

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"github.com/salus-sim/salus/internal/config"
	"github.com/salus-sim/salus/internal/crash"
	"github.com/salus-sim/salus/internal/fault"
	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/migrate"
	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
	"github.com/salus-sim/salus/internal/tenant"
)

// The campaign harness: the pieces every salus-check mode runs on. A mode
// is a plan struct embedding Campaign (and Space where it sizes one
// system), a per-seed function, and — for the replay modes — a replayer
// that lets the shared shrinker and reproducer emitter work on its
// sequences.

// Campaign is the seed range and progress sink every plan embeds.
type Campaign struct {
	Seeds     int   // seeds run
	FirstSeed int64 // the campaign covers [FirstSeed, FirstSeed+Seeds)

	// Verbose, when non-nil, receives one progress line per seed.
	Verbose func(string)
}

// each runs seed for every seed of the campaign in order, reporting its
// progress line through Verbose, and stops after the first seed that
// fails.
func (c Campaign) each(seed func(seed int64) (progress string, ok bool)) {
	for i := 0; i < c.Seeds; i++ {
		s := c.FirstSeed + int64(i)
		progress, ok := seed(s)
		if c.Verbose != nil {
			c.Verbose(fmt.Sprintf("seed %d: %s", s, progress))
		}
		if !ok {
			return
		}
	}
}

// Space sizes the one securemem system a campaign checks.
type Space struct {
	TotalPages  int // home (CXL) pages; keep small so sweeps stay fast
	DevicePages int // device frames; << TotalPages forces eviction churn
	Geometry    config.Geometry
}

// checkGeometry is the geometry every default campaign checks.
var checkGeometry = config.Geometry{SectorSize: 32, BlockSize: 128, ChunkSize: 256, PageSize: 4096}

// smallSpace is pages home pages over frames device frames of checkGeometry.
func smallSpace(pages, frames int) Space {
	return Space{TotalPages: pages, DevicePages: frames, Geometry: checkGeometry}
}

// size returns the home address-space size in bytes.
func (s Space) size() uint64 { return uint64(s.TotalPages) * uint64(s.Geometry.PageSize) }

// memConfig returns the securemem configuration of a ModelSalus system
// over the space.
func (s Space) memConfig() securemem.Config {
	return securemem.Config{
		Geometry:    s.Geometry,
		Model:       securemem.ModelSalus,
		TotalPages:  s.TotalPages,
		DevicePages: s.DevicePages,
	}
}

// Verdict is what a concurrent campaign (serve, tenant, migrate) reports
// besides its counters. Their op interleaving is not replayable, so a
// failure is the list of violations its first failing seed recorded, not
// a shrinkable sequence.
type Verdict struct {
	SeedsRun int
	// Violations holds every contract breach, each prefixed with its
	// seed, plus any campaign-level SLO miss. Empty means PASS.
	Violations []string
}

// Failed reports whether the campaign found any contract violation.
func (v *Verdict) Failed() bool { return len(v.Violations) > 0 }

// slo records an SLO miss when got falls below a positive floor.
func (v *Verdict) slo(what string, got, floor float64) {
	if floor > 0 && got < floor {
		v.Violations = append(v.Violations, fmt.Sprintf("SLO miss: %s availability %.4f below floor %.4f", what, got, floor))
	}
}

// record counts one seed and its violations and reports whether it passed.
func (v *Verdict) record(seed int64, vs []string) bool {
	v.SeedsRun++
	for _, x := range vs {
		v.Violations = append(v.Violations, fmt.Sprintf("seed %d: %s", seed, x))
	}
	return len(vs) == 0
}

// --- Replay modes: shrink and reproducer. ---

// replayer is what the shared shrinker and reproducer emitter know about
// one replay mode.
type replayer struct {
	name     string                  // reproducer test-name prefix: Check, Crash, Link
	replay   func(Sequence) *Failure // a fresh, side-effect-free replay
	preamble string                  // Go statements rebuilding the plan, newline-terminated
	call     string                  // the replay call the reproducer asserts passes
}

// minimize shrinks a failing sequence and returns the failure of the
// minimal one (f itself if the minimal sequence somehow passes), with its
// reproducer rendered.
func (r replayer) minimize(f *Failure) *Failure {
	// Re-replay the minimal sequence so the failure's location and
	// reason describe it, not the original.
	if mf := r.replay(shrink(f.Seq, r.replay)); mf != nil {
		f = mf
	}
	f.Repro = r.goTest(f, fmt.Sprintf("seed%d", f.Seq.Seed))
	return f
}

// shrink reduces a failing sequence to a (locally) minimal reproducer:
// first it truncates everything after the failing op, then it runs a
// ddmin-style pass, removing op windows of halving size as long as the
// reduced sequence still fails. Ops are self-contained (address, length,
// payload tag), so removing any subset leaves a replayable sequence.
//
// Replay is deterministic, so the result is reproducible: replaying the
// returned sequence fails with the same class of violation.
func shrink(seq Sequence, replay func(Sequence) *Failure) Sequence {
	fails := func(ops []Op) bool { return replay(Sequence{Seed: seq.Seed, Ops: ops}) != nil }
	ops := append([]Op(nil), seq.Ops...)
	f := replay(seq)
	if f == nil {
		// Not reproducible from a fresh replay (should not happen with
		// deterministic targets); return the input unshrunk.
		return seq
	}
	// Drop the suffix the failure never reached.
	if f.OpIdx >= 0 && f.OpIdx+1 < len(ops) {
		if trunc := ops[:f.OpIdx+1]; fails(trunc) {
			ops = trunc
		}
	}
	// Remove windows of halving size while the failure reproduces.
	for sz := len(ops) / 2; sz >= 1; sz /= 2 {
		for i := 0; i+sz <= len(ops); {
			cand := make([]Op, 0, len(ops)-sz)
			cand = append(cand, ops[:i]...)
			cand = append(cand, ops[i+sz:]...)
			if fails(cand) {
				ops = cand
			} else {
				i += sz
			}
		}
	}
	return Sequence{Seed: seq.Seed, Ops: ops}
}

// goTest renders f's (shrunk) sequence as a runnable Go regression test
// asserting the sequence replays cleanly under the mode's plan. It is
// meant to be committed next to the fix: paste it into a _test.go file in
// any package that can import internal/check. name becomes part of the
// test function name and must be a valid identifier suffix.
func (r replayer) goTest(f *Failure, name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "// Regression test emitted by the salus-check shrinker.\n")
	fmt.Fprintf(&b, "// Original failure: %s\n", f)
	fmt.Fprintf(&b, "func Test%sRegression_%s(t *testing.T) {\n", r.name, name)
	b.WriteString(r.preamble)
	fmt.Fprintf(&b, "\tseq := check.Sequence{Seed: %d, Ops: []check.Op{\n", f.Seq.Seed)
	for _, op := range f.Seq.Ops {
		fmt.Fprintf(&b, "\t\t{%s},\n", op.render("Kind: check."+op.Kind.info().ident, [3]string{", Addr: %#x", ", Len: %d", ", Tag: %d"}))
	}
	b.WriteString("\t}}\n")
	fmt.Fprintf(&b, "\tif f := %s; f != nil {\n", r.call)
	b.WriteString("\t\tt.Fatalf(\"regression reproduced: %v\", f)\n")
	b.WriteString("\t}\n")
	b.WriteString("}\n")
	return b.String()
}

// --- Byte oracle. ---

// oracle is the plaintext a correct system holds over one region. Bytes a
// failed write may have half-applied are tainted: their content is
// ambiguous (old or new) and they are excluded from comparison until a
// later successful write, or an adopting read, resolves them.
type oracle struct {
	want  []byte
	taint []bool
}

func newOracle(n uint64) *oracle {
	return &oracle{want: make([]byte, n), taint: make([]bool, n)}
}

// write records a successful write at offset off.
func (o *oracle) write(off uint64, data []byte) {
	copy(o.want[off:], data)
	clear(o.taint[off : off+uint64(len(data))])
}

// failed taints the n bytes at off: a write there failed and may have
// landed partially.
func (o *oracle) failed(off uint64, n int) {
	for i := off; i < off+uint64(n); i++ {
		o.taint[i] = true
	}
}

// diff returns the first index where got, read at off, differs from the
// oracle outside tainted bytes, or -1 when they agree.
func (o *oracle) diff(off uint64, got []byte) int {
	for i := range got {
		if got[i] != o.want[off+uint64(i)] && !o.taint[off+uint64(i)] {
			return i
		}
	}
	return -1
}

// adopt is diff for a read that resolves ambiguity: tainted bytes take
// the value the system returned.
func (o *oracle) adopt(off uint64, got []byte) int {
	for i := range got {
		j := off + uint64(i)
		switch {
		case o.taint[j]:
			o.want[j], o.taint[j] = got[i], false
		case got[i] != o.want[j]:
			return i
		}
	}
	return -1
}

// sweep reads the whole region back in stride-sized pieces and returns a
// violation reason for the first read error or divergence, or "".
func (o *oracle) sweep(stride int, what string, read func(off uint64, buf []byte) error) string {
	buf := make([]byte, stride)
	for off := uint64(0); off < uint64(len(o.want)); off += uint64(stride) {
		b := buf[:min(uint64(stride), uint64(len(o.want))-off)]
		if err := read(off, b); err != nil {
			return fmt.Sprintf("%s at %#x: %v", what, off, err)
		}
		if i := o.diff(off, b); i >= 0 {
			return diffReason(what, off, i, b, o.want[off:])
		}
	}
	return ""
}

// clone returns an independent copy — a snapshot to rewind to.
func (o *oracle) clone() *oracle {
	return &oracle{want: append([]byte(nil), o.want...), taint: append([]bool(nil), o.taint...)}
}

// restore rewinds o to snapshot s.
func (o *oracle) restore(s *oracle) {
	copy(o.want, s.want)
	copy(o.taint, s.taint)
}

// tainted counts the bytes still ambiguous.
func (o *oracle) tainted() int {
	n := 0
	for _, t := range o.taint {
		if t {
			n++
		}
	}
	return n
}

// diffReason renders a plaintext divergence at the given byte index.
func diffReason(what string, addr uint64, i int, got, want []byte) string {
	return fmt.Sprintf("%s at %#x diverged from oracle at byte %d: got %#x want %#x",
		what, addr, i, got[i], want[i])
}

// --- Typed-error classifier. ---

// errSet is a set of typed sentinels a contract allows.
type errSet []error

// has reports whether err is (or wraps) one of the set's sentinels.
func (s errSet) has(err error) bool {
	for _, e := range s {
		if errors.Is(err, e) {
			return true
		}
	}
	return false
}

// The sentinel sets the campaigns' contracts are written in.
var (
	// faultErrs are the typed faults an armed engine may surface.
	faultErrs = errSet{securemem.ErrTransient, securemem.ErrPoison}
	// linkErrs are the typed link-degradation refusals an outage may surface.
	linkErrs = errSet{securemem.ErrLinkDown, securemem.ErrDegraded, securemem.ErrQueueFull}
	// chaosErrs is every casualty of injected faults and outages.
	chaosErrs = append(append(errSet{}, faultErrs...), linkErrs...)
	// integrityErrs are the refusals of a key domain verifying foreign or
	// stale ciphertext.
	integrityErrs = errSet{securemem.ErrIntegrity, securemem.ErrFreshness}
	// streamErrs are the typed refusals of an attacked migration stream.
	streamErrs = errSet{migrate.ErrTornStream, migrate.ErrReplay, migrate.ErrAttestation, migrate.ErrFreshness}
	// quotaErrs is the tenant admission quota.
	quotaErrs = errSet{tenant.ErrQuota}
)

// panicError marks a recovered panic. A panic is always a failure, even
// where an error return was expected.
type panicError struct{ val any }

func (p *panicError) Error() string { return fmt.Sprintf("panic: %v", p.val) }

// safely runs f, converting a panic into a *panicError.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &panicError{val: r}
		}
	}()
	return f()
}

// --- Paced chaos driver (serve and tenant). ---

// chaosEngine is the chaos surface of one engine: a serve campaign's
// shared Concurrent or a tenant campaign's attacker.
type chaosEngine interface {
	AttachFaults(fault.Injector, securemem.RetryPolicy, *sim.Engine)
	Checkpoint(*crash.Journal) (securemem.TrustedRoot, error)
	ForceLinkUp()
	DrainWritebacks() (int, error)
}

// chaosSession is the paced chaos driver the serve and tenant campaigns
// share. Workers send one tick on pace per finished op. Every EventEvery
// ticks the driver rolls one event; outages flip the manual link, every
// other event runs only in a link-up window. The session also owns the
// checkpoint journal, the last committed root and the counters.
type chaosSession struct {
	seed  int64
	rate  float64 // transient fault rate; 0 arms nothing
	burst int
	// pace carries one tick per finished worker op. The buffer only
	// lets workers run ahead of the driver; every tick is still counted.
	pace      chan struct{}
	manual    *link.Manual
	store     *crash.MemStore
	journal   *crash.Journal
	root      securemem.TrustedRoot
	haveRoot  bool
	violation func(format string, a ...any)

	checkpoints, refused, crashes, outages int
}

func newChaosSession(seed int64, rate float64, burst int, violation func(string, ...any)) *chaosSession {
	store := crash.NewMemStore()
	return &chaosSession{seed: seed, rate: rate, burst: burst, pace: make(chan struct{}, 1024), manual: link.NewManual(),
		store: store, journal: crash.NewJournal(store), violation: violation}
}

// freshLink returns a new link over the session's manual plan. Every
// maintenance window and every reboot starts from it, so the breaker
// state a window sees is the plan's, not a cooldown whose length depends
// on how the workers' transfers interleaved.
func (s *chaosSession) freshLink() *link.Link { return link.New(s.manual, link.DefaultConfig()) }

// arm attaches a transient-fault injector seeded from the session seed
// and salt, or detaches faults when salt is negative or the plan injects
// none. The engine retry policy is one attempt per service attempt.
func (s *chaosSession) arm(e chaosEngine, salt int64) {
	var inj fault.Injector
	if salt >= 0 && s.rate > 0 {
		inj = fault.NewRatePlan(s.seed^salt, fault.Rates{Transient: s.rate}, s.burst)
	}
	e.AttachFaults(inj, serveEnginePolicy(), nil)
}

// checkpoint commits one epoch of e in a maintenance window the caller
// holds quiesced: attach installs a fresh link, faults are detached for
// the window and rearmed after, and on success snapshot captures the
// oracles at the root's cut. A typed link refusal is counted.
func (s *chaosSession) checkpoint(e chaosEngine, attach func(*link.Link), snapshot func()) {
	attach(s.freshLink())
	s.arm(e, -1)
	defer s.arm(e, int64(s.checkpoints+1)<<8)
	root, err := e.Checkpoint(s.journal)
	switch {
	case err == nil:
		s.root, s.haveRoot = root, true
		snapshot()
		s.checkpoints++
	case linkErrs.has(err):
		s.refused++
	default:
		s.violation("checkpoint failed untyped: %v", err)
	}
}

// crash runs one crash/recover cycle: reboot must rebuild the engine from
// the journal bytes and the last root, reattach the chaos surface and
// rewind the oracles. Without a committed root it does nothing.
func (s *chaosSession) crash(reboot func(journal []byte, root securemem.TrustedRoot) error) {
	if !s.haveRoot {
		return
	}
	if err := reboot(s.store.Bytes(), s.root); err != nil {
		s.violation("crash recovery failed: %v", err)
		return
	}
	s.crashes++
}

// drive runs n workers, each ticking s.pace once per finished op, and
// the paced event loop until every worker has finished. Every every-th
// tick rolls rng.Intn(len(events)); a nil entry is a link outage of
// outageMin..outageMax ticks, any other runs in a link-up window.
//
// Pace sends are blocking and the loop drains pace before honoring done,
// so every tick is counted: which ticks flap, checkpoint, or crash is a
// pure function of the seed, independent of goroutine interleaving.
func (s *chaosSession) drive(n int, work func(i int), rng *rand.Rand,
	every, outageMin, outageMax int, events []func(tick int)) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()

	ticks, upAt := 0, 0
	linkDown := false
	for running := true; running; {
		select {
		case <-s.pace:
			ticks++
		default:
			select {
			case <-s.pace:
				ticks++
			case <-done:
				running = false
			}
		}
		if linkDown && (ticks >= upAt || !running) {
			s.manual.Set(link.StateUp)
			linkDown = false
		}
		if !running || every <= 0 || ticks%every != 0 {
			continue
		}
		switch ev := events[rng.Intn(len(events))]; {
		case ev == nil: // link outage window
			if !linkDown {
				s.manual.Set(link.StateDown)
				linkDown = true
				upAt = ticks + outageMin + rng.Intn(outageMax-outageMin+1)
				s.outages++
			}
		case !linkDown:
			ev(ticks)
		}
	}
}

// quiesce disarms chaos on e, forces its link up and drains its parked
// writebacks. From here on everything must succeed.
func (s *chaosSession) quiesce(e chaosEngine) {
	s.arm(e, -1)
	e.ForceLinkUp()
	if _, err := e.DrainWritebacks(); err != nil {
		s.violation("post-quiesce drain failed: %v", err)
	}
}
