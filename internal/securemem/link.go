package securemem

import (
	"errors"
	"fmt"

	"github.com/salus-sim/salus/internal/link"
	"github.com/salus-sim/salus/internal/sim"
)

// CXL link degradation. A System can be armed with a link.Link that
// models the transport to the home tier as a first-class degradable
// resource: Up, Degraded (every home transfer pays a latency surcharge,
// charged to the sim clock), or Down (home transfers refused). The
// degraded-mode policy is:
//
//   - Device-memory hits keep serving: resident pages never touch the
//     link, so reads and writes to them proceed at full speed.
//   - Misses fail fast with ErrLinkDown (the plan refused the transfer)
//     or ErrDegraded (the circuit breaker fast-failed it) — never a
//     retry/backoff spin against a dead transport.
//   - Evictions that cannot reach the home tier park the frame on a
//     bounded dirty-writeback queue instead of blocking: the page stays
//     resident and keeps serving, and the queue's FIFO order is the
//     eventual writeback order. A full queue pushes back with
//     ErrQueueFull.
//   - On recovery, DrainWritebacks empties the queue in FIFO-per-page
//     order. Every drained page's home-tier state is first re-verified
//     against the integrity tree, so a link outage can never be used to
//     mask a rollback or splice of home state: the outage window ends
//     with ErrFreshness, not silent acceptance.
//
// Link refusals are modelled on data traffic to the home tier only, at
// the same chokepoints as the fault gates (gateHome, gateHomePageRead,
// gateEvictWrites); device-tier traffic never consults the link.

// Link-taxonomy sentinels, alongside ErrTransient/ErrPoison.
var (
	// ErrLinkDown reports a home-tier access refused because the CXL
	// link is down.
	ErrLinkDown = errors.New("securemem: CXL link down")
	// ErrDegraded reports a home-tier access fast-failed by the open
	// circuit breaker while the link recovers.
	ErrDegraded = errors.New("securemem: CXL link degraded (circuit breaker open)")
	// ErrQueueFull reports an eviction that could not park on the
	// dirty-writeback queue because it is at capacity.
	ErrQueueFull = errors.New("securemem: dirty-writeback queue full")
	// ErrWritebacksPending reports a Suspend attempted while parked
	// writebacks still wait for the link; drain them first.
	ErrWritebacksPending = errors.New("securemem: parked writebacks pending (drain before suspend)")
)

// DefaultWritebackQueueCap bounds the dirty-writeback queue when
// AttachLink is given no explicit capacity.
const DefaultWritebackQueueCap = 8

// parkedError reports an eviction that parked its frame on the
// writeback queue instead of completing. It wraps the link error that
// caused the park, so errors.Is sees ErrLinkDown/ErrDegraded through it.
type parkedError struct {
	cause error
}

func (e *parkedError) Error() string {
	return fmt.Sprintf("securemem: eviction parked on writeback queue: %v", e.cause)
}

func (e *parkedError) Unwrap() error { return e.cause }

// AttachLink arms the system with a CXL link model. queueCap bounds the
// dirty-writeback queue (non-positive selects DefaultWritebackQueueCap).
// clock may be nil, in which case degraded-transfer latency costs no
// simulated time (it is still accounted in the link's
// Stats().ExtraLatencyCycles).
func (s *System) AttachLink(l *link.Link, clock *sim.Engine, queueCap int) {
	s.lnk = l
	if clock != nil {
		s.clock = clock
	}
	if queueCap <= 0 {
		queueCap = DefaultWritebackQueueCap
	}
	s.wbqCap = queueCap
}

// Link returns the attached link model, or nil.
func (s *System) Link() *link.Link { return s.lnk }

// ForceLinkUp pins the attached link up (a no-op without one). The link
// model is shared hardware, so the reset serialises under the hardware
// lock against concurrent linkCheck consultations from other shards.
func (s *System) ForceLinkUp() {
	if s.lnk == nil {
		return
	}
	s.locks.hw.Lock()
	defer s.locks.hw.Unlock()
	s.lnk.ForceUp()
}

// linkCheck consults the link for one chunk-sized home-tier transfer:
// nil means the transfer may proceed (any brownout surcharge has been
// charged to the clock); otherwise the typed refusal to surface. It runs
// before the fault-retry gate so a dead link fails fast instead of
// consuming the transient retry/backoff budget. The link model and the
// clock it charges are shared across shards, so the consultation runs
// under the hardware lock (the nil fast path stays lock-free: AttachLink
// is setup-time).
func (s *System) linkCheck() error {
	if s.lnk == nil {
		return nil
	}
	s.locks.hw.Lock()
	defer s.locks.hw.Unlock()
	lat, err := s.lnk.Transfer()
	if err != nil {
		if errors.Is(err, link.ErrBreakerOpen) {
			return fmt.Errorf("%w: %v", ErrDegraded, err)
		}
		return fmt.Errorf("%w: %v", ErrLinkDown, err)
	}
	if lat > 0 && s.clock != nil {
		s.clock.Advance(lat)
	}
	return nil
}

// Writeback-queue helpers. The queue slice is shared across shards
// (any shard's eviction can park, any shard's migration may drain), so
// every access goes through these helpers, each of which holds
// locks.wbQueueMu for its own duration only — never across a home-tier
// call, so a slow drain in one shard cannot stall queue inspection in
// another. The queue is tiny (wbqCap entries), so linear scans are fine.

// wbqLen returns the current queue length.
func (s *System) wbqLen() int {
	s.locks.wbQueueMu.Lock()
	defer s.locks.wbQueueMu.Unlock()
	return len(s.wbq)
}

// wbqHead returns the frame at the FIFO head, or -1 when empty.
func (s *System) wbqHead() int {
	s.locks.wbQueueMu.Lock()
	defer s.locks.wbQueueMu.Unlock()
	if len(s.wbq) == 0 {
		return -1
	}
	return s.wbq[0]
}

// wbqFirstOfShard returns the first queued frame belonging to shard, or
// -1. With one shard this is exactly the FIFO head.
func (s *System) wbqFirstOfShard(shard int) int {
	s.locks.wbQueueMu.Lock()
	defer s.locks.wbQueueMu.Unlock()
	for _, q := range s.wbq {
		if q%s.nShards == shard {
			return q
		}
	}
	return -1
}

// wbqPark queues fi unless it is already queued. It returns the queue
// length after the call, whether fi was appended by this call, and
// whether a full queue refused it.
func (s *System) wbqPark(fi int) (n int, appended, full bool) {
	s.locks.wbQueueMu.Lock()
	defer s.locks.wbQueueMu.Unlock()
	for _, q := range s.wbq {
		if q == fi {
			return len(s.wbq), false, false
		}
	}
	if len(s.wbq) >= s.wbqCap {
		return len(s.wbq), false, true
	}
	s.wbq = append(s.wbq, fi)
	return len(s.wbq), true, false
}

// wbqRemove deletes fi from the queue, preserving FIFO order of the rest.
func (s *System) wbqRemove(fi int) {
	s.locks.wbQueueMu.Lock()
	defer s.locks.wbQueueMu.Unlock()
	for i, q := range s.wbq {
		if q == fi {
			s.wbq = append(s.wbq[:i], s.wbq[i+1:]...)
			return
		}
	}
}

// park turns a link-refused eviction of frame fi into a queued
// writeback: the frame stays resident (and keeps serving) with its
// parked flag set, and the queue records the FIFO drain order. A frame
// already queued keeps its position, which is what makes a drain
// interrupted by a second flap idempotent. A full queue refuses with
// ErrQueueFull; otherwise the returned error is a parkedError wrapping
// cause.
func (s *System) park(fi int, cause error) error {
	f := &s.frames[fi]
	if !f.parked {
		n, appended, full := s.wbqPark(fi)
		if full {
			bump(&s.stats.WritebacksDropped)
			return fmt.Errorf("%w: %d writebacks already parked", ErrQueueFull, n)
		}
		if appended {
			bump(&s.stats.WritebacksQueued)
			peakMax(&s.stats.WritebackQueuePeak, uint64(n))
		}
		f.parked = true
	}
	return &parkedError{cause: cause}
}

// QueuedWritebacks returns how many frames are parked on the
// dirty-writeback queue.
func (s *System) QueuedWritebacks() int { return s.wbqLen() }

// DrainWritebacks is the reconciler: it evicts parked frames in FIFO
// order, re-verifying each page's home-tier freshness before the
// writeback touches home state. It returns how many writebacks drained.
// A link refusal mid-drain leaves the head parked (the next drain
// resumes exactly there) and surfaces typed; an ErrFreshness or
// ErrIntegrity verdict means the home tier was tampered with during the
// outage and is never silently accepted.
func (s *System) DrainWritebacks() (int, error) {
	n := 0
	for s.wbqLen() > 0 {
		if err := s.drainOne(); err != nil {
			return n, err
		}
		n++
	}
	return n, nil
}

// drainOne drains the queue head: freshness-verify, then a real evict.
func (s *System) drainOne() error {
	fi := s.wbqHead()
	if fi < 0 {
		return nil
	}
	return s.drainFrame(fi)
}

// drainFrame drains one specific queued frame. DrainWritebacks always
// hands it the FIFO head; a migration starved of frames may instead
// drain the first queued frame of its own shard (the head with one
// shard), the one exception to strict FIFO order.
func (s *System) drainFrame(fi int) error {
	f := &s.frames[fi]
	if f.homePage < 0 || !f.parked {
		// The frame was freed behind the queue's back (cannot happen
		// through the public API: parked frames refuse plain evictions).
		s.wbqRemove(fi)
		f.parked = false
		bump(&s.stats.WritebacksDrained)
		return nil
	}
	if err := s.verifyParkedFreshness(fi); err != nil {
		return err
	}
	f.parked = false
	if err := s.evict(fi); err != nil {
		var pe *parkedError
		if errors.As(err, &pe) {
			// Re-parked: the link flapped again mid-drain. The frame kept
			// its queue position, so the next drain resumes at the head.
			return pe.cause
		}
		f.parked = true // still queued; keep the flag consistent
		return err
	}
	s.wbqRemove(fi)
	bump(&s.stats.WritebacksDrained)
	return nil
}

// verifyParkedFreshness re-verifies the home-tier state of a parked page
// before its drain writes anything back. The collapsed major of every
// chunk must still verify against the CXL integrity tree — a rollback or
// splice of home state during the outage surfaces as ErrFreshness — and
// the home ciphertext of every clean chunk must still carry a valid MAC
// under that major, so tampered bytes surface as ErrIntegrity. Without
// this check a link outage would be an integrity holiday: the attacker
// rewinds the home tier while the system cannot look, and the drain
// would bless the rewind by writing fresh chunks around it.
func (s *System) verifyParkedFreshness(fi int) error {
	if s.cfg.Model != ModelSalus {
		return nil
	}
	f := &s.frames[fi]
	page := f.homePage
	cs := s.geo.ChunkSize
	ss := s.geo.SectorSize
	for c := 0; c < s.geo.ChunksPerPage(); c++ {
		homeChunk := page*s.geo.ChunksPerPage() + c
		if s.poisoned[homeChunk] {
			continue
		}
		major, err := s.salusHomeMajor(homeChunk)
		if err != nil {
			return fmt.Errorf("parked page %d chunk %d: %w", page, c, err)
		}
		if f.dirty&(1<<uint(c)) != 0 {
			// The drain is about to overwrite this chunk's home copy; the
			// tree check above is the bar a rollback must clear.
			continue
		}
		if s.splitArmed.Load() && s.splitDirty[homeChunk] {
			// Split-state chunks are MAC'd under per-sector split pairs;
			// their freshness rides the split tree instead.
			continue
		}
		base := uint64(homeChunk * cs)
		for i := 0; i < s.geo.SectorsPerChunk(); i++ {
			ha := base + uint64(i*ss)
			ct := s.cxlData[ha : ha+uint64(ss)]
			bump(&s.pageState(page).macVerifies)
			if !s.eng.VerifyMAC(ct, ha, uint64(major), 0, s.homeMAC(HomeAddr(ha))) {
				return fmt.Errorf("%w: parked page %d home address %#x changed during outage",
					ErrIntegrity, page, ha)
			}
		}
	}
	return nil
}

// linkPrecheckCheckpoint consults the link for every home writeback a
// Checkpoint is about to perform, before any state (including the epoch
// number) moves: a checkpoint that cannot reach the home tier is an
// atomic no-op rather than a half-written epoch with cleared dirty bits.
func (s *System) linkPrecheckCheckpoint() error {
	if s.lnk == nil {
		return nil
	}
	for page, d := range s.ckptDirty {
		if !d {
			continue
		}
		fi := s.pageTable[page]
		if fi < 0 {
			continue
		}
		f := &s.frames[fi]
		for c := 0; c < s.geo.ChunksPerPage(); c++ {
			if f.dirty&(1<<uint(c)) == 0 {
				continue
			}
			if s.poisoned[page*s.geo.ChunksPerPage()+c] {
				continue
			}
			if err := s.linkCheck(); err != nil {
				return err
			}
		}
	}
	return nil
}
