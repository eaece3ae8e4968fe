package mediator

import (
	"context"
	"errors"
	"testing"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/wrapper"
)

// The context-aware entry points exist for the serving layer: a server
// deadline or client disconnect must cancel the source fan-out instead
// of orphaning it behind a hanging wrapper. These tests pin the
// contract against a wrapper.Faulty source that hangs every call.

// hangingMediator returns a guarded mediator whose single source hangs
// every wrapper call for `hang` (fault layer on via SourceTimeout so
// cancellation can reach in-flight calls).
func hangingMediator(t testing.TB, hang time.Duration) *Mediator {
	t.Helper()
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{HangFirst: 1000, Hang: hang},
		Options{SourceTimeout: time.Minute})
	return m
}

func TestQueryCtxCancelUnblocksHangingSource(t *testing.T) {
	m := hangingMediator(t, 30*time.Second)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := m.QueryCtx(ctx, "src_obj('REC', O, rec)", "O")
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v; the hanging call was not abandoned", elapsed)
	}
}

func TestQueryCtxDeadlineUnblocksHangingSource(t *testing.T) {
	m := hangingMediator(t, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := m.QueryCtx(ctx, "src_obj('REC', O, rec)", "O")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline took %v to surface", elapsed)
	}
}

func TestPlannedQueryCtxCancel(t *testing.T) {
	m := hangingMediator(t, 30*time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err := m.PlannedQueryCtx(ctx, "src_obj('REC', O, rec)", "O")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// Cancellation is not a health signal: it must not trip the breaker or
// mark the source failed, so the next (uncancelled) query still
// contacts the source normally.
func TestCancelDoesNotPoisonSourceHealth(t *testing.T) {
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{HangFirst: 1, Hang: 30 * time.Second},
		Options{SourceTimeout: time.Minute, Breaker: breaker.Config{Threshold: 1, Cooldown: time.Hour}})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := m.QueryCtx(ctx, "src_obj('REC', O, rec)", "O"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Only the first call hung; with an untripped breaker this query
	// goes straight through. Had the cancellation counted as a breaker
	// failure, the one-strike breaker above would reject it.
	ans, err := m.Query("src_obj('REC', O, rec)", "O")
	if err != nil {
		t.Fatalf("follow-up query after cancellation: %v", err)
	}
	if len(ans.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(ans.Rows))
	}
	for _, r := range m.SourceReports() {
		if r.Status == StatusFailed {
			t.Fatalf("source %s marked failed by a cancellation: %+v", r.Source, r)
		}
	}
}

// A pre-cancelled context fails fast even when the answer would have
// been served from the materialization cache.
func TestQueryCtxPreCancelled(t *testing.T) {
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{}, Options{})
	if _, err := m.Query("src_obj('REC', O, rec)", "O"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.QueryCtx(ctx, "src_obj('REC', O, rec)", "O"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Answer.Span carries the per-query trace race-free (unlike LastTrace,
// which concurrent queries overwrite).
func TestAnswerCarriesOwnSpan(t *testing.T) {
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{}, Options{})
	m.EnableTracing(true)
	ans, err := m.Query("src_obj('REC', O, rec)", "O")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Span == nil {
		t.Fatal("Answer.Span is nil with tracing on")
	}
	if ans.Span.Name() != "mediator.query" {
		t.Fatalf("span name = %q", ans.Span.Name())
	}
	if ans.Span.Find("evaluate") == nil {
		t.Fatalf("span tree missing evaluate child:\n%s", ans.Span.Render())
	}
	m.EnableTracing(false)
	ans, err = m.Query("src_obj('REC', O, rec)", "O")
	if err != nil {
		t.Fatal(err)
	}
	if ans.Span != nil {
		t.Fatal("Answer.Span must be nil with tracing off")
	}
}
