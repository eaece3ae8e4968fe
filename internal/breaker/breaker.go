// Package breaker is the circuit-breaker policy shared by the
// mediator (one breaker per source) and the cluster router (one per
// shard): closed until Threshold consecutive failures, then open for
// Cooldown, then half-open. Half-open admits every call; there is no
// probe slot. The first result decides the state again: a success
// closes the breaker, a failure re-opens it for another cooldown. A
// call that ends without a result (its caller went away) records
// nothing and therefore holds nothing back from later calls.
package breaker

import (
	"sync"
	"time"
)

// Config is the breaker policy. Each user resolves its own defaults.
type Config struct {
	// Threshold is the number of consecutive failures that open the
	// breaker (at least 1).
	Threshold int
	// Cooldown is how long an open breaker rejects calls.
	Cooldown time.Duration
}

// Breaker is one circuit breaker. A nil *Breaker is switched off: it
// admits every call and records nothing.
type Breaker struct {
	cfg Config
	now func() time.Time // the clock; tests substitute a fake one

	mu     sync.Mutex
	fails  int       // consecutive failures since the last success
	opened time.Time // when the breaker last opened
	err    error     // the last failure's error, nil after a success
}

// New returns a closed breaker with the given policy.
func New(cfg Config) *Breaker {
	return &Breaker{cfg: cfg, now: time.Now}
}

// tripped reports whether the failure count has reached the threshold.
// Called with b.mu held.
func (b *Breaker) tripped() bool { return b.fails >= b.cfg.Threshold }

// Allow reports whether a call may proceed: the breaker is closed, or
// it has been open for at least the cooldown. It changes nothing, so it
// also answers "would a call be admitted now?".
func (b *Breaker) Allow() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.tripped() || b.now().Sub(b.opened) >= b.cfg.Cooldown
}

// Success records a call that reached its target and closes the
// breaker.
func (b *Breaker) Success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.fails, b.err = 0, nil
	b.mu.Unlock()
}

// Failure records a failed call (err may be nil) and reports whether
// this call opened the breaker: the failure that reaches the threshold,
// or the first failure of a half-open call. A failure while the breaker
// is already open restarts its cooldown but reports false.
func (b *Breaker) Failure(err error) (opened bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	halfOpen := b.tripped() && now.Sub(b.opened) >= b.cfg.Cooldown
	b.fails++
	if err != nil {
		b.err = err
	}
	if !b.tripped() {
		return false
	}
	b.opened = now
	return b.fails == b.cfg.Threshold || halfOpen
}

// Tripped reports whether the breaker has reached its threshold with no
// success since (open or half-open), with the last failure's error.
func (b *Breaker) Tripped() (bool, error) {
	if b == nil {
		return false, nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tripped(), b.err
}
