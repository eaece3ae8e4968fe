package breaker

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFake(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	b := New(Config{Threshold: threshold, Cooldown: cooldown})
	b.now = clk.now
	return b, clk
}

// TestBreakerTransitions walks the state machine on a fake clock:
// closed -> open at the threshold, rejected inside the cooldown,
// admitted after it, a failed half-open call re-opens, failures while
// open do not report opened, and a success closes.
func TestBreakerTransitions(t *testing.T) {
	boom := errors.New("boom")
	for _, threshold := range []int{1, 2} {
		b, clk := newFake(threshold, time.Second)
		for i := 1; i < threshold; i++ {
			if b.Failure(boom) {
				t.Fatalf("threshold %d: failure %d opened the breaker", threshold, i)
			}
			if !b.Allow() {
				t.Fatalf("threshold %d: closed breaker rejected after %d failures", threshold, i)
			}
		}
		if !b.Failure(boom) {
			t.Fatalf("threshold %d: failure at the threshold did not report opened", threshold)
		}
		if tripped, err := b.Tripped(); !tripped || !errors.Is(err, boom) {
			t.Fatalf("threshold %d: Tripped() = %v, %v; want true, boom", threshold, tripped, err)
		}
		clk.advance(999 * time.Millisecond)
		if b.Allow() {
			t.Fatalf("threshold %d: admitted inside the cooldown", threshold)
		}
		if b.Failure(boom) {
			t.Fatalf("threshold %d: failure while open reported opened", threshold)
		}
		// That failure restarted the cooldown.
		clk.advance(999 * time.Millisecond)
		if b.Allow() {
			t.Fatalf("threshold %d: admitted inside the restarted cooldown", threshold)
		}
		clk.advance(time.Millisecond)
		if !b.Allow() || !b.Allow() {
			t.Fatalf("threshold %d: half-open breaker rejected a call", threshold)
		}
		if !b.Failure(boom) {
			t.Fatalf("threshold %d: failed half-open call did not report opened", threshold)
		}
		if b.Failure(boom) {
			t.Fatalf("threshold %d: second failure after re-opening reported opened", threshold)
		}
		if b.Allow() {
			t.Fatalf("threshold %d: admitted right after re-opening", threshold)
		}
		clk.advance(time.Second)
		if !b.Allow() {
			t.Fatalf("threshold %d: rejected after the second cooldown", threshold)
		}
		b.Success()
		if tripped, err := b.Tripped(); tripped || err != nil {
			t.Fatalf("threshold %d: Tripped() after success = %v, %v", threshold, tripped, err)
		}
		if threshold > 1 && b.Failure(boom) {
			t.Fatalf("threshold %d: first failure after closing opened the breaker", threshold)
		}
		if !b.Allow() {
			t.Fatalf("threshold %d: closed breaker rejected", threshold)
		}
	}
}

// TestBreakerNilIsOff: a nil breaker admits everything.
func TestBreakerNilIsOff(t *testing.T) {
	var b *Breaker
	if b.Failure(errors.New("x")) || !b.Allow() {
		t.Fatal("nil breaker tripped")
	}
	b.Success()
	if tripped, _ := b.Tripped(); tripped {
		t.Fatal("nil breaker reports tripped")
	}
}

// TestBreakerConcurrent drives Allow, Failure and Success from several
// goroutines (run under -race); exactly one failure may report the
// closed -> open transition while the clock stands still.
func TestBreakerConcurrent(t *testing.T) {
	b := New(Config{Threshold: 3, Cooldown: time.Hour})
	var wg sync.WaitGroup
	var mu sync.Mutex
	opened := 0
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				b.Allow()
				if b.Failure(nil) {
					mu.Lock()
					opened++
					mu.Unlock()
				}
				b.Tripped()
			}
		}()
	}
	wg.Wait()
	if opened != 1 {
		t.Fatalf("%d failures reported opening the breaker, want 1", opened)
	}
	if b.Allow() {
		t.Fatal("breaker admits a call inside its cooldown")
	}
	b.Success()
	if !b.Allow() {
		t.Fatal("success did not close the breaker")
	}
}
