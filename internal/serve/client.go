package serve

import (
	"errors"
	"fmt"
	"math/rand"

	"github.com/salus-sim/salus/internal/securemem"
	"github.com/salus-sim/salus/internal/sim"
)

// Client is one synthetic traffic stream: a seeded generator issuing
// reads and writes over its own disjoint byte region, carrying a
// region-sized oracle of the plaintext it believes the engine holds.
//
// Consistency tracking is ambiguity-aware. A write that fails after
// reaching the engine (ErrAmbiguous) may or may not have applied, so
// each touched byte becomes tainted with a candidate-value set — the
// previous value plus every unresolved ambiguous write's byte — and a
// later verified read resolves the byte to whichever candidate it
// observed. A read byte matching no candidate, or a clean byte differing
// from the oracle, is a silent divergence and is recorded as a
// violation.
//
// All oracle and taint mutation happens inside Request.OnDone callbacks,
// which the server runs under its engine lock; Snapshot and Restore are
// meant to be called from a quiesced phase (Server.WithQuiesced or after
// Run returns), which is what makes checkpoint/crash state capture
// atomic. Everything else is confined to the Run goroutine.
type Client struct {
	cfg ClientConfig
	rng *rand.Rand

	oracle []byte
	// cand maps a tainted byte offset to its candidate values; the
	// oracle byte (value if no unresolved write applied) is always one
	// of them. Untainted offsets are absent.
	cand map[int][]byte

	violations []string
	outcomes   OutcomeCounts
}

// OutcomeCounts tallies the typed outcomes one client observed.
type OutcomeCounts struct {
	Served, Shed, Deadline, Overload, Refused, Ambiguous, Untyped int
}

// ClientConfig configures one traffic stream.
type ClientConfig struct {
	ID    int
	Class Class
	// Tenant tags every request the client issues for the
	// Report.Tenants counters; empty opts out.
	Tenant string
	// Base/Len is the client's byte region; regions of concurrent
	// clients must be disjoint (the consistency oracle owns its bytes).
	Base securemem.HomeAddr
	Len  int
	// Ops is how many requests Run issues.
	Ops int
	// Seed drives the request generator.
	Seed int64
	// WriteFrac is the write fraction in [0, 1]; zero defaults to 0.4.
	WriteFrac float64
	// MaxSpan bounds a request's byte span; zero defaults to 96, always
	// clamped to Len.
	MaxSpan int
	// Deadline overrides the class default relative deadline in cycles
	// when non-zero.
	Deadline sim.Cycle
	// Pace, when set, receives exactly one tick per completed request —
	// the chaos driver's work-based pacing signal. The send blocks, so
	// the receiver must keep draining until every client returned; the
	// guaranteed delivery is what makes a driver's tick-indexed chaos
	// schedule a deterministic function of its seed.
	Pace chan<- struct{}
}

// ClientState is a Client's checkpointable consistency state.
type ClientState struct {
	oracle []byte
	cand   map[int][]byte
}

// NewClient builds a client over a zeroed region (a fresh engine reads
// zeros, so the oracle starts all-zero).
func NewClient(cfg ClientConfig) (*Client, error) {
	if cfg.Len <= 0 {
		return nil, fmt.Errorf("serve: client %d: region length %d", cfg.ID, cfg.Len)
	}
	if cfg.Class < 0 || cfg.Class >= NumClasses {
		return nil, fmt.Errorf("serve: client %d: invalid class %d", cfg.ID, int(cfg.Class))
	}
	if cfg.WriteFrac == 0 {
		cfg.WriteFrac = 0.4
	}
	if cfg.MaxSpan <= 0 {
		cfg.MaxSpan = 96
	}
	if cfg.MaxSpan > cfg.Len {
		cfg.MaxSpan = cfg.Len
	}
	return &Client{
		cfg:    cfg,
		rng:    rand.New(rand.NewSource(cfg.Seed)),
		oracle: make([]byte, cfg.Len),
		cand:   make(map[int][]byte),
	}, nil
}

// Run issues cfg.Ops requests against s, blocking until done. It must
// run on its own goroutine when other clients share the server.
func (c *Client) Run(s *Server) {
	for i := 0; i < c.cfg.Ops; i++ {
		span := 1 + c.rng.Intn(c.cfg.MaxSpan)
		off := c.rng.Intn(c.cfg.Len - span + 1)
		req := &Request{
			Class:  c.cfg.Class,
			Addr:   c.cfg.Base + securemem.HomeAddr(off),
			Tenant: c.cfg.Tenant,
		}
		if c.cfg.Deadline > 0 {
			req.Deadline = s.Clock().Now() + c.cfg.Deadline
		}
		if c.rng.Float64() < c.cfg.WriteFrac {
			data := make([]byte, span)
			c.rng.Read(data)
			req.Write, req.Data = true, data
			req.OnDone = func(err error) { c.onWrite(off, data, err) }
		} else {
			buf := make([]byte, span)
			req.Buf = buf
			req.OnDone = func(err error) { c.onRead(off, buf, err) }
		}
		c.note(s.Do(req))
		if c.cfg.Pace != nil {
			c.cfg.Pace <- struct{}{}
		}
	}
}

// note classifies a terminal outcome; an error outside the typed
// taxonomy is itself a violation ("never dropped, never untyped").
func (c *Client) note(err error) {
	switch {
	case err == nil:
		c.outcomes.Served++
	case errors.Is(err, ErrShed):
		c.outcomes.Shed++
	case errors.Is(err, ErrOverload):
		c.outcomes.Overload++
	case errors.Is(err, ErrDeadline):
		c.outcomes.Deadline++
	case errors.Is(err, ErrAmbiguous):
		c.outcomes.Ambiguous++
	case errors.Is(err, ErrRetryBudget),
		errors.Is(err, ErrClosed),
		errors.Is(err, securemem.ErrTransient),
		errors.Is(err, securemem.ErrPoison),
		errors.Is(err, securemem.ErrLinkDown),
		errors.Is(err, securemem.ErrDegraded),
		errors.Is(err, securemem.ErrQueueFull),
		errors.Is(err, securemem.ErrIntegrity),
		errors.Is(err, securemem.ErrFreshness):
		c.outcomes.Refused++
	default:
		c.outcomes.Untyped++
		c.fail("untyped error: %v", err)
	}
}

// onWrite folds a write outcome into the oracle. The server's contract
// is that a write's OnDone error is nil or wraps ErrAmbiguous.
func (c *Client) onWrite(off int, data []byte, err error) {
	switch {
	case err == nil:
		copy(c.oracle[off:], data)
		for i := range data {
			delete(c.cand, off+i)
		}
	case errors.Is(err, ErrAmbiguous):
		for i, b := range data {
			c.taint(off+i, b)
		}
	default:
		c.fail("write outcome neither success nor ambiguous: %v", err)
	}
}

// onRead verifies a read outcome byte-for-byte against the oracle,
// resolving tainted bytes to whichever candidate the engine returned.
func (c *Client) onRead(off int, buf []byte, err error) {
	if err != nil {
		return // typed refusal: no bytes to verify
	}
	for i, b := range buf {
		j := off + i
		cands, tainted := c.cand[j]
		switch {
		case !tainted:
			if b != c.oracle[j] {
				c.fail("silent divergence at +%d: read %#02x, oracle %#02x", j, b, c.oracle[j])
			}
		case matches(b, cands):
			// The verified read resolves the ambiguity: whatever subset
			// of the unresolved writes applied, this is the byte now.
			c.oracle[j] = b
			delete(c.cand, j)
		default:
			c.fail("divergence at tainted +%d: read %#02x, candidates %v", j, b, cands)
		}
	}
}

// taint marks offset j ambiguous with candidate value v: the byte may
// now hold v (the failed write applied) or any previously possible
// value.
func (c *Client) taint(j int, v byte) {
	cands, ok := c.cand[j]
	if !ok {
		cands = []byte{c.oracle[j]}
	}
	if !matches(v, cands) {
		cands = append(cands, v)
	}
	c.cand[j] = cands
}

// matches reports whether b is one of the candidate values.
func matches(b byte, cands []byte) bool {
	for _, v := range cands {
		if v == b {
			return true
		}
	}
	return false
}

func (c *Client) fail(format string, args ...any) {
	c.violations = append(c.violations,
		fmt.Sprintf("client %d (%v): %s", c.cfg.ID, c.cfg.Class, fmt.Sprintf(format, args...)))
}

// Violations returns the recorded consistency violations. Call only
// after Run returns (or from a quiesced phase).
func (c *Client) Violations() []string { return c.violations }

// Outcomes returns the client-side outcome tally; Untyped must be zero
// on a healthy run.
func (c *Client) Outcomes() OutcomeCounts { return c.outcomes }

// TaintedBytes counts bytes still carrying write ambiguity.
func (c *Client) TaintedBytes() int { return len(c.cand) }

// Snapshot captures the consistency state for a checkpoint. Must be
// called from a quiesced phase.
func (c *Client) Snapshot() ClientState {
	st := ClientState{
		oracle: make([]byte, len(c.oracle)),
		cand:   make(map[int][]byte, len(c.cand)),
	}
	copy(st.oracle, c.oracle)
	for j, cands := range c.cand {
		st.cand[j] = append([]byte(nil), cands...)
	}
	return st
}

// Restore rewinds the consistency state to a snapshot (crash recovery
// rolled the engine back to the matching checkpoint). Must be called
// from a quiesced phase.
func (c *Client) Restore(st ClientState) {
	copy(c.oracle, st.oracle)
	c.cand = make(map[int][]byte, len(st.cand))
	for j, cands := range st.cand {
		c.cand[j] = append([]byte(nil), cands...)
	}
}

// VerifyFinal reads the whole region through read and compares it
// against the oracle modulo surviving taint, returning any divergences.
// Call after quiesce with chaos disarmed: the read itself must succeed.
func (c *Client) VerifyFinal(read func(addr securemem.HomeAddr, buf []byte) error) []string {
	buf := make([]byte, c.cfg.Len)
	if err := read(c.cfg.Base, buf); err != nil {
		return []string{fmt.Sprintf("client %d (%v): final read failed: %v", c.cfg.ID, c.cfg.Class, err)}
	}
	var out []string
	for j, b := range buf {
		cands, tainted := c.cand[j]
		switch {
		case !tainted:
			if b != c.oracle[j] {
				out = append(out, fmt.Sprintf("client %d (%v): final divergence at +%d: engine %#02x, oracle %#02x",
					c.cfg.ID, c.cfg.Class, j, b, c.oracle[j]))
			}
		case !matches(b, cands):
			out = append(out, fmt.Sprintf("client %d (%v): final divergence at tainted +%d: engine %#02x, candidates %v",
				c.cfg.ID, c.cfg.Class, j, b, cands))
		}
	}
	return out
}
