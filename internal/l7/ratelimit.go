package l7

import (
	"sync"
	"time"
)

// TokenBucket is a virtual-time token-bucket rate limiter. It takes explicit
// timestamps so the same limiter works under the simulator's clock and under
// wall time in the real gateway, where every request that meets the limit
// shares it: the bucket is safe for concurrent use.
type TokenBucket struct {
	mu       sync.Mutex
	rate     float64 // tokens per second
	burst    float64
	tokens   float64
	lastFill time.Duration
}

// NewTokenBucket returns a bucket refilling at rate tokens/second with the
// given burst capacity, initially full.
func NewTokenBucket(rate, burst float64) *TokenBucket {
	if burst <= 0 {
		burst = 1
	}
	return &TokenBucket{rate: rate, burst: burst, tokens: burst}
}

// Allow consumes one token at virtual time now, reporting whether the
// request is admitted. Calls must have non-decreasing now.
func (b *TokenBucket) Allow(now time.Duration) bool {
	return b.AllowN(now, 1)
}

// AllowN consumes n tokens at virtual time now.
func (b *TokenBucket) AllowN(now time.Duration, n float64) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if now > b.lastFill {
		b.tokens += b.rate * (now - b.lastFill).Seconds()
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		b.lastFill = now
	}
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}

// Rate returns the configured refill rate.
func (b *TokenBucket) Rate() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rate
}

// SetRate changes the refill rate (used by the gateway's dynamic throttling).
func (b *TokenBucket) SetRate(rate float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.rate = rate
}
