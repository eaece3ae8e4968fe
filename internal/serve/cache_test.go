package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"modelmed/internal/mediator"
	"modelmed/internal/obs"
)

// fixedStamp is the stamp of a published value that never moves.
var fixedStamp = &mediator.Stamp{Commit: 1, Sources: map[string]uint64{}}

func fixedStamps() *mediator.Stamp { return fixedStamp }

// mkcached is an answer tagged n in its one var name, read at
// fixedStamp.
func mkcached(n int) *mediator.Answer {
	return &mediator.Answer{Vars: []string{fmt.Sprint(n)}, Stamp: fixedStamp}
}

func computeOK(n int) func() (*mediator.Answer, error) {
	return func() (*mediator.Answer, error) { return mkcached(n), nil }
}

// stamps is a fake stamp source: a published value over alpha and beta
// whose next commit moves one source, drops the result, or builds.
type stamps struct {
	mu  sync.Mutex
	cur *mediator.Stamp
}

func newStamps() *stamps {
	return &stamps{cur: &mediator.Stamp{Commit: 1, Sources: map[string]uint64{"alpha": 1, "beta": 1}}}
}

func (s *stamps) load() *mediator.Stamp {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cur
}

// publish stamps the next commit: without a result, or with each of
// moved at the new commit and the other sources as they were.
func (s *stamps) publish(result bool, moved ...string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := &mediator.Stamp{Commit: s.cur.Commit + 1}
	if result {
		next.Sources = map[string]uint64{"alpha": s.cur.Sources["alpha"], "beta": s.cur.Sources["beta"]}
		for _, name := range moved {
			next.Sources[name] = next.Commit
		}
	}
	s.cur = next
}

// computeOK answers n, read at the stamp current when it runs.
func (s *stamps) computeOK(n int) func() (*mediator.Answer, error) {
	return func() (*mediator.Answer, error) {
		return &mediator.Answer{Vars: []string{fmt.Sprint(n)}, Stamp: s.load()}, nil
	}
}

func TestCacheHitAndLRUEviction(t *testing.T) {
	c := newAnswerCache(2, fixedStamps, nil)
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
	c := newAnswerCache(4, fixedStamps, nil)
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
	c := newAnswerCache(4, fixedStamps, nil)
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
	c := newAnswerCache(4, fixedStamps, nil)
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

// TestCacheValidatesSourceStamps: after a move of alpha, a lookup
// drops exactly the entries that read alpha's state, and the global
// one; beta's entry still hits.
func TestCacheValidatesSourceStamps(t *testing.T) {
	st := newStamps()
	ctr := obs.NewCounters()
	c := newAnswerCache(8, st.load, ctr)
	ctx := context.Background()
	c.do(ctx, defaultTenant, "alpha-only", []string{"alpha"}, false, st.computeOK(1))
	c.do(ctx, defaultTenant, "beta-only", []string{"beta"}, false, st.computeOK(2))
	c.do(ctx, defaultTenant, "both", []string{"alpha", "beta"}, false, st.computeOK(3))
	c.do(ctx, defaultTenant, "global", nil, true, st.computeOK(4))
	c.do(ctx, defaultTenant, "gamma", []string{"gamma"}, false, st.computeOK(5))

	st.publish(true, "alpha")
	for key, hit := range map[string]bool{"alpha-only": false, "beta-only": true, "both": false, "global": false, "gamma": true} {
		if _, ok := c.get(defaultTenant, key); ok != hit {
			t.Errorf("%s after an alpha move: hit %v, want %v", key, ok, hit)
		}
	}
	if n := ctr.Get("serve.cache_entries_dropped"); n != 3 {
		t.Fatalf("dropped = %d, want 3 (alpha-only, both, global)", n)
	}
	if c.size() != 2 {
		t.Fatalf("size = %d, want 2", c.size())
	}
}

// TestCacheValidatesNothingWithoutResult: a value with no result (a
// program change) serves no entry, and the build after it stamps every
// state anew, so nothing read before it serves either.
func TestCacheValidatesNothingWithoutResult(t *testing.T) {
	st := newStamps()
	c := newAnswerCache(8, st.load, nil)
	ctx := context.Background()
	c.do(ctx, defaultTenant, "a", []string{"alpha"}, false, st.computeOK(1))
	c.do(ctx, defaultTenant, "b", nil, true, st.computeOK(2))
	c.do(ctx, defaultTenant, "none", nil, false, st.computeOK(3))
	st.publish(false)
	for _, key := range []string{"a", "b", "none"} {
		if _, ok := c.get(defaultTenant, key); ok {
			t.Errorf("%s hit a value with no result", key)
		}
	}
	c.do(ctx, defaultTenant, "a", []string{"alpha"}, false, st.computeOK(1))
	st.publish(true, "alpha", "beta")
	if _, ok := c.get(defaultTenant, "a"); ok {
		t.Error("an answer read before a build hit after it")
	}
	if c.size() != 0 {
		t.Fatalf("size = %d, want 0", c.size())
	}
}

// TestCacheFlightBeforeMoveNeverServed: a flight that read alpha
// before a move of alpha and finishes after it may be stored, but no
// lookup after the move is served its answer.
func TestCacheFlightBeforeMoveNeverServed(t *testing.T) {
	st := newStamps()
	c := newAnswerCache(8, st.load, nil)
	gate := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.do(context.Background(), defaultTenant, "k", []string{"alpha"}, false, func() (*mediator.Answer, error) {
			read := st.load()
			close(started)
			<-gate
			return &mediator.Answer{Vars: []string{"1"}, Stamp: read}, nil
		})
	}()
	<-started
	st.publish(true, "alpha")
	close(gate)
	<-done
	for i := 0; i < 2; i++ {
		if _, ok := c.get(defaultTenant, "k"); ok {
			t.Fatal("a flight read before a move was served after it")
		}
	}
	val, out, err := c.do(context.Background(), defaultTenant, "k", []string{"alpha"}, false, st.computeOK(2))
	if err != nil || out != outcomeComputed || val.Vars[0] != "2" {
		t.Fatalf("after the move: %+v, outcome %d, err %v; want 2 computed", val, out, err)
	}
}
