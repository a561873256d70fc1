package sim

import "sync"

// TokenBucket is a deterministic token bucket clocked by its caller:
// Take refills rate tokens per cycle elapsed since the last refill, up
// to burst, then spends one. The clock is whatever the caller counts —
// a Clock's service cycles, or a tenant's attempt count — so admission
// is a pure function of the sequence of Take times, never of wall time.
// A bucket with rate <= 0 is disabled and admits without locking. Safe
// for concurrent use.
type TokenBucket struct {
	rate, burst float64 // immutable after NewTokenBucket

	mu     sync.Mutex
	tokens float64
	last   Cycle
}

// NewTokenBucket returns a full bucket; burst is raised to 1 when rate is
// set, so an enabled bucket can always admit something.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if rate > 0 && burst < 1 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Take refills the bucket up to now and consumes one token if available.
// A now at or before the last refill adds nothing.
func (b *TokenBucket) Take(now Cycle) bool {
	if b.rate <= 0 {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.last {
		b.tokens += float64(now-b.last) * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true
	}
	return false
}
