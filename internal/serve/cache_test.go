package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"modelmed/internal/mediator"
)

// fixedProgram is a program generation that never moves.
func fixedProgram() uint64 { return 0 }

// mkcached is an answer tagged n in its one var name.
func mkcached(n int) *mediator.Answer {
	return &mediator.Answer{Vars: []string{fmt.Sprint(n)}}
}

func computeOK(n int) func() (*mediator.Answer, error) {
	return func() (*mediator.Answer, error) { return mkcached(n), nil }
}

func TestCacheHitAndLRUEviction(t *testing.T) {
	c := newAnswerCache(2, fixedProgram)
	ctx := context.Background()
	mustDo := func(key string, n int) outcome {
		t.Helper()
		_, out, err := c.do(ctx, defaultTenant, key, nil, false, computeOK(n))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if out := mustDo("a", 1); out != outcomeComputed {
		t.Fatalf("first a: outcome %d, want computed", out)
	}
	if out := mustDo("a", 99); out != outcomeHit {
		t.Fatalf("second a: outcome %d, want hit", out)
	}
	mustDo("b", 2)
	// Touch a so b is the LRU victim when c arrives.
	mustDo("a", 99)
	mustDo("c", 3)
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}
	if _, ok := c.get(defaultTenant, "b"); ok {
		t.Fatal("b survived eviction; LRU order not respected")
	}
	if _, ok := c.get(defaultTenant, "a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
}

func TestCacheErrorsAreNotCached(t *testing.T) {
	c := newAnswerCache(4, fixedProgram)
	boom := errors.New("boom")
	_, _, err := c.do(context.Background(), defaultTenant, "k", nil, false, func() (*mediator.Answer, error) {
		return nil, boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if c.size() != 0 {
		t.Fatal("failed computation was cached")
	}
}

func TestCacheSingleFlightCollapses(t *testing.T) {
	c := newAnswerCache(4, fixedProgram)
	var computes atomic.Int64
	gate := make(chan struct{})
	compute := func() (*mediator.Answer, error) {
		computes.Add(1)
		<-gate
		return mkcached(7), nil
	}

	const followers = 5
	var wg sync.WaitGroup
	outcomes := make(chan outcome, followers+1)
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, out, err := c.do(context.Background(), defaultTenant, "k", nil, false, compute)
			if err != nil {
				t.Error(err)
				return
			}
			outcomes <- out
		}()
	}
	// Wait until the leader's flight is registered and all followers can
	// only be parked on it, then open the gate.
	for computes.Load() == 0 {
	}
	close(gate)
	wg.Wait()
	close(outcomes)

	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1 (single-flight)", n)
	}
	var computed int
	for out := range outcomes {
		if out == outcomeComputed {
			computed++
		}
	}
	// A follower scheduled after the leader published may see a plain
	// hit instead of a collapse; either way only one compute ran.
	if computed != 1 {
		t.Fatalf("outcomes: %d computed, want exactly 1", computed)
	}
}

func TestCacheFollowerCancellation(t *testing.T) {
	c := newAnswerCache(4, fixedProgram)
	gate := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.do(context.Background(), defaultTenant, "k", nil, false, func() (*mediator.Answer, error) {
			close(started)
			<-gate
			return mkcached(1), nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.do(ctx, defaultTenant, "k", nil, false, computeOK(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("follower err = %v, want context.Canceled", err)
	}
	close(gate)
}

func TestCacheInvalidateSource(t *testing.T) {
	c := newAnswerCache(8, fixedProgram)
	ctx := context.Background()
	c.do(ctx, defaultTenant, "alpha-only", []string{"alpha"}, false, computeOK(1))
	c.do(ctx, defaultTenant, "beta-only", []string{"beta"}, false, computeOK(2))
	c.do(ctx, defaultTenant, "both", []string{"alpha", "beta"}, false, computeOK(3))
	c.do(ctx, defaultTenant, "global", nil, true, computeOK(4))

	dropped := c.invalidateSource("alpha")
	if dropped != 3 {
		t.Fatalf("dropped = %d, want 3 (alpha-only, both, global)", dropped)
	}
	if _, ok := c.get(defaultTenant, "beta-only"); !ok {
		t.Fatal("beta-only was dropped by an alpha invalidation")
	}
	if _, ok := c.get(defaultTenant, "alpha-only"); ok {
		t.Fatal("alpha-only survived an alpha invalidation")
	}
	if _, ok := c.get(defaultTenant, "global"); ok {
		t.Fatal("global entry survived a source invalidation")
	}
}

func TestCacheInvalidateAll(t *testing.T) {
	c := newAnswerCache(8, fixedProgram)
	ctx := context.Background()
	c.do(ctx, defaultTenant, "a", []string{"alpha"}, false, computeOK(1))
	c.do(ctx, defaultTenant, "b", nil, true, computeOK(2))
	if n := c.invalidateAll(); n != 2 {
		t.Fatalf("invalidateAll = %d, want 2", n)
	}
	if c.size() != 0 {
		t.Fatal("cache not empty after invalidateAll")
	}
}

func TestCacheGenerationGuardsStaleInsert(t *testing.T) {
	// A flight that began before an invalidation must not publish its
	// (pre-delta) answer after it.
	c := newAnswerCache(8, fixedProgram)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.do(context.Background(), defaultTenant, "k", []string{"alpha"}, false, func() (*mediator.Answer, error) {
			close(started)
			<-gate
			return mkcached(1), nil
		})
	}()
	<-started
	c.invalidateSource("alpha")
	close(gate)
	<-done
	if c.size() != 0 {
		t.Fatal("stale flight result was cached across an invalidation")
	}
}
