package mediator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/gcm"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// unitModel builds a one-class source ("REC", n records anchored at the
// ANATOM concept spine), so each materialization issues exactly one
// QueryObjects call site — the retry/deadline/breaker policies can be
// pinned attempt by attempt.
func unitModel(t testing.TB, n int) *gcm.Model {
	t.Helper()
	m := gcm.NewModel("REC")
	m.AddClass(&gcm.Class{Name: "rec", Methods: []gcm.MethodSig{
		{Name: "location", Result: "string", Anchor: true},
		{Name: "value", Result: "integer", Scalar: true},
	}})
	for i := 0; i < n; i++ {
		m.AddObject(gcm.Object{
			ID:    term.Atom(fmt.Sprintf("rec%d", i)),
			Class: "rec",
			Values: map[string][]term.Term{
				"location": {term.Atom("spine")},
				"value":    {term.Int(int64(i))},
			},
		})
	}
	return m
}

// newUnitMediator registers a single fault-decorated one-class source.
func newUnitMediator(t testing.TB, n int, cfg wrapper.FaultConfig, opts Options) (*Mediator, *wrapper.Faulty) {
	t.Helper()
	m := New(sources.NeuroDM(), &opts)
	w, err := wrapper.NewInMemory(unitModel(t, n))
	if err != nil {
		t.Fatal(err)
	}
	f := wrapper.NewFaulty(w, cfg)
	if err := m.Register(f); err != nil {
		t.Fatal(err)
	}
	return m, f
}

// fastRetry is the test-speed retry policy.
func fastRetry(maxRetries int) Options {
	return Options{
		MaxRetries: maxRetries,
		RetryBase:  100 * time.Microsecond,
		RetryMax:   500 * time.Microsecond,
	}
}

func countRows(t testing.TB, m *Mediator, q string, vars ...string) int {
	t.Helper()
	ans, err := m.Query(q, vars...)
	if err != nil {
		t.Fatal(err)
	}
	return len(ans.Rows)
}

func reportFor(t testing.TB, reports []SourceReport, source string) SourceReport {
	t.Helper()
	for _, r := range reports {
		if r.Source == source {
			return r
		}
	}
	t.Fatalf("no report for source %s in %v", source, reports)
	return SourceReport{}
}

// TestGuardDisabledByDefault pins the opt-in contract: without fault
// options the mediator materializes from the registration snapshot and
// never calls the live wrapper — a dead source cannot hurt the legacy
// path, and there are no reports.
func TestGuardDisabledByDefault(t *testing.T) {
	m, f := newUnitMediator(t, 6, wrapper.FaultConfig{Down: true}, Options{})
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 6 {
		t.Fatalf("snapshot materialization returned %d objects, want 6", got)
	}
	if calls := f.FaultStats().Calls; calls != 0 {
		t.Errorf("legacy path issued %d wrapper query calls, want 0", calls)
	}
	if rep := m.SourceReports(); rep != nil {
		t.Errorf("reports without fault layer: %v", rep)
	}
}

// TestRetryRecoversAfterTransientFailures: a source that fails its
// first two calls answers on the third attempt; the result is complete
// and the report says degraded with two retries.
func TestRetryRecoversAfterTransientFailures(t *testing.T) {
	m, f := newUnitMediator(t, 7, wrapper.FaultConfig{FailFirst: 2}, fastRetry(3))
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 7 {
		t.Fatalf("got %d objects, want 7", got)
	}
	r := reportFor(t, m.SourceReports(), "REC")
	if r.Status != StatusDegraded || r.Attempts != 3 || r.Retries != 2 || r.Err != "" {
		t.Errorf("report = %+v, want degraded with 3 attempts / 2 retries", r)
	}
	if st := f.FaultStats(); st.Calls != 3 || st.Errors != 2 {
		t.Errorf("wrapper saw %+v, want 3 calls / 2 errors", st)
	}
}

// TestRetryBudgetExhaustsThenRecovers: with FailFirst beyond the retry
// budget the first materialization degrades (no facts, no anchors, a
// failed report); after Invalidate the source has recovered and the
// next materialization pulls the full data.
func TestRetryBudgetExhaustsThenRecovers(t *testing.T) {
	m, _ := newUnitMediator(t, 5, wrapper.FaultConfig{FailFirst: 5}, fastRetry(2))
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 0 {
		t.Fatalf("degraded run still has %d objects", got)
	}
	if got := countRows(t, m, "anchor('REC', O, spine)", "O"); got != 0 {
		t.Fatalf("degraded run still has %d anchor facts", got)
	}
	r := reportFor(t, m.SourceReports(), "REC")
	if r.Status != StatusFailed || r.Attempts != 3 || r.Err == "" {
		t.Errorf("report = %+v, want failed after 3 attempts with an error", r)
	}

	m.Invalidate()
	// Calls 4 and 5 still fail (FailFirst=5), call 6 answers.
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 5 {
		t.Fatalf("recovered run has %d objects, want 5", got)
	}
	if got := countRows(t, m, "anchor('REC', O, spine)", "O"); got != 5 {
		t.Fatalf("recovered run has %d anchor facts, want 5", got)
	}
	r = reportFor(t, m.SourceReports(), "REC")
	if r.Status != StatusDegraded || r.Retries != 2 {
		t.Errorf("recovered report = %+v, want degraded with 2 retries", r)
	}
}

// TestDeadlineCutsHangingCall: the first call hangs far past the
// deadline; the guard abandons it, retries, and completes quickly.
func TestDeadlineCutsHangingCall(t *testing.T) {
	opts := fastRetry(2)
	opts.SourceTimeout = 30 * time.Millisecond
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{HangFirst: 1, Hang: 2 * time.Second}, opts)
	start := time.Now()
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 6 {
		t.Fatalf("got %d objects, want 6", got)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("materialization waited out the hang (%v); the deadline did not cut it", d)
	}
	r := reportFor(t, m.SourceReports(), "REC")
	if r.Status != StatusDegraded || r.Timeouts != 1 || r.Retries != 1 {
		t.Errorf("report = %+v, want degraded with 1 timeout / 1 retry", r)
	}
}

// TestDeadlineExhaustionDegrades: a source that hangs on every call
// times out through the whole budget and is dropped.
func TestDeadlineExhaustionDegrades(t *testing.T) {
	opts := fastRetry(1)
	opts.SourceTimeout = 20 * time.Millisecond
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{HangFirst: 10, Hang: 2 * time.Second}, opts)
	start := time.Now()
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 0 {
		t.Fatalf("hung source still contributed %d objects", got)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("degradation took %v; deadlines did not bound the hang", d)
	}
	r := reportFor(t, m.SourceReports(), "REC")
	if r.Status != StatusFailed || r.Timeouts != 2 {
		t.Errorf("report = %+v, want failed with 2 timeouts", r)
	}
}

// TestBreakerOpensAfterThreshold: after Threshold consecutive failures
// the breaker rejects calls without contacting the wrapper.
func TestBreakerOpensAfterThreshold(t *testing.T) {
	opts := fastRetry(0)
	opts.Breaker = breaker.Config{Threshold: 2, Cooldown: time.Hour}
	m, f := newUnitMediator(t, 4, wrapper.FaultConfig{Down: true}, opts)
	for i := 0; i < 2; i++ {
		if _, err := m.PushSelect("REC", "rec"); err == nil {
			t.Fatalf("call %d to a down source succeeded", i)
		}
	}
	if calls := f.FaultStats().Calls; calls != 2 {
		t.Fatalf("wrapper saw %d calls before the breaker opened, want 2", calls)
	}
	for i := 0; i < 3; i++ {
		_, err := m.PushSelect("REC", "rec")
		if !errors.Is(err, errBreakerOpen) {
			t.Fatalf("open-breaker call %d: error = %v, want breaker rejection", i, err)
		}
	}
	if calls := f.FaultStats().Calls; calls != 2 {
		t.Errorf("open breaker still let %d calls through", calls-2)
	}
}

// TestBreakerHalfOpenProbeRecovers walks the full state machine:
// closed -> open after 2 failures -> cooled down -> a failing half-open
// probe re-opens -> a succeeding probe closes it again.
func TestBreakerHalfOpenProbeRecovers(t *testing.T) {
	opts := fastRetry(0)
	opts.Breaker = breaker.Config{Threshold: 2, Cooldown: 30 * time.Millisecond}
	m, f := newUnitMediator(t, 4, wrapper.FaultConfig{FailFirst: 3}, opts)

	for i := 0; i < 2; i++ {
		if _, err := m.PushSelect("REC", "rec"); err == nil {
			t.Fatalf("call %d should have failed", i)
		}
	}
	if _, err := m.PushSelect("REC", "rec"); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("breaker not open after threshold: %v", err)
	}
	if calls := f.FaultStats().Calls; calls != 2 {
		t.Fatalf("wrapper saw %d calls, want 2", calls)
	}

	time.Sleep(60 * time.Millisecond)
	// Half-open: the next call goes through; FailFirst=3 makes it fail, so
	// the breaker re-opens.
	if _, err := m.PushSelect("REC", "rec"); err == nil || errors.Is(err, errBreakerOpen) {
		t.Fatalf("half-open probe not issued: %v", err)
	}
	if calls := f.FaultStats().Calls; calls != 3 {
		t.Fatalf("probe did not reach the wrapper (calls=%d)", calls)
	}
	if _, err := m.PushSelect("REC", "rec"); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("breaker should have re-opened after the failed probe: %v", err)
	}

	time.Sleep(60 * time.Millisecond)
	// Second probe: the source has recovered; the breaker closes.
	res, err := m.PushSelect("REC", "rec")
	if err != nil {
		t.Fatalf("recovering probe failed: %v", err)
	}
	if !res.Pushed || len(res.Objs) != 4 {
		t.Fatalf("probe result = %+v, want 4 objects", res)
	}
	if _, err := m.PushSelect("REC", "rec"); err != nil {
		t.Fatalf("closed-breaker call failed: %v", err)
	}
	if calls := f.FaultStats().Calls; calls != 5 {
		t.Errorf("wrapper saw %d calls, want 5", calls)
	}
}

// TestBreakerProbePermanentErrorReleasesSlot: a half-open call that
// comes back with a *permanent* error proves the source is reachable,
// so it closes the breaker.
func TestBreakerProbePermanentErrorReleasesSlot(t *testing.T) {
	opts := fastRetry(0)
	opts.Breaker = breaker.Config{Threshold: 2, Cooldown: 20 * time.Millisecond}
	m := New(sources.NeuroDM(), &opts)
	g := m.newGuard()
	transient := func() (int, error) {
		return 0, &wrapper.FaultError{Source: "REC", Op: "test"}
	}
	for i := 0; i < 2; i++ {
		if _, err := guardedCall(g, "REC", transient); err == nil {
			t.Fatalf("transient call %d succeeded", i)
		}
	}
	if _, err := guardedCall(g, "REC", transient); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("breaker not open after threshold: %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	perm := errors.New("source X does not serve class rec")
	if _, err := guardedCall(g, "REC", func() (int, error) { return 0, perm }); !errors.Is(err, perm) {
		t.Fatalf("permanent probe error = %v, want pass-through", err)
	}
	v, err := guardedCall(g, "REC", func() (int, error) { return 42, nil })
	if err != nil {
		t.Fatalf("call after permanent-error probe rejected: %v", err)
	}
	if v != 42 {
		t.Fatalf("got %d, want 42", v)
	}
}

// TestBreakerProbeCapabilityMissRecovers is the mediator-level shape of
// the same case: the half-open call is a selection pushdown the
// source has no capability for. The permanent miss must close the
// breaker so the scan fallback *within the same PushSelect* — and every
// call after it — goes through.
func TestBreakerProbeCapabilityMissRecovers(t *testing.T) {
	opts := fastRetry(0)
	opts.Breaker = breaker.Config{Threshold: 2, Cooldown: 20 * time.Millisecond}
	m, f := newUnitMediator(t, 5, wrapper.FaultConfig{}, opts)
	br := m.breakerFor("REC")
	br.Failure(nil)
	br.Failure(nil)
	if _, err := m.PushSelect("REC", "rec"); !errors.Is(err, errBreakerOpen) {
		t.Fatalf("breaker not open: %v", err)
	}
	time.Sleep(40 * time.Millisecond)
	res, err := m.PushSelect("REC", "rec",
		wrapper.Selection{Attr: "value", Value: term.Int(3)})
	if err != nil {
		t.Fatalf("capability-miss probe wedged the breaker: %v", err)
	}
	if res.Pushed || len(res.Objs) != 1 {
		t.Fatalf("result = %+v, want 1 scan-filtered object", res)
	}
	if _, err := m.PushSelect("REC", "rec"); err != nil {
		t.Fatalf("call after recovery failed: %v", err)
	}
	// Pushdown probe, scan fallback, final scan — all reached the wrapper.
	if calls := f.FaultStats().Calls; calls != 3 {
		t.Errorf("wrapper saw %d calls, want 3", calls)
	}
}

// TestCancelledProbeDoesNotWedgeBreaker: a half-open call whose caller
// goes away mid-call says nothing about the source and records nothing,
// so it must not keep later calls from reaching the wrapper once the
// breaker has cooled down again.
func TestCancelledProbeDoesNotWedgeBreaker(t *testing.T) {
	opts := fastRetry(0)
	opts.Breaker = breaker.Config{Threshold: 1, Cooldown: 20 * time.Millisecond}
	m := New(sources.NeuroDM(), &opts)
	if _, err := guardedCall(m.newGuard(), "REC", func() (int, error) {
		return 0, &wrapper.FaultError{Source: "REC", Op: "test"}
	}); err == nil {
		t.Fatal("transient call succeeded")
	}
	time.Sleep(40 * time.Millisecond)
	ctx, cancel := context.WithCancel(context.Background())
	hung := make(chan struct{})
	defer close(hung)
	_, err := guardedCall(m.newGuardCtx(ctx), "REC", func() (int, error) {
		cancel()
		<-hung
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled half-open call: err = %v, want context.Canceled", err)
	}
	time.Sleep(40 * time.Millisecond)
	reached := false
	if _, err := guardedCall(m.newGuard(), "REC", func() (int, error) { reached = true; return 1, nil }); err != nil || !reached {
		t.Fatalf("call after the next cooldown: err = %v, reached wrapper = %v", err, reached)
	}
}

// TestSyncReadmitsDownSource: a source left out of the published value
// as down stays out of every read, and no read contacts its wrapper, not
// even after its breaker cools down: reading a source is a writer's job.
// SyncSources leaves it alone while the breaker is open and reads it
// again once the breaker admits a call; the source has recovered
// (FailFirst=1 is spent), so the answer is whole again.
func TestSyncReadmitsDownSource(t *testing.T) {
	opts := fastRetry(0)
	opts.Breaker = breaker.Config{Threshold: 1, Cooldown: 150 * time.Millisecond}
	m, f := newUnitMediator(t, 5, wrapper.FaultConfig{FailFirst: 1}, opts)
	ans, err := m.Query("src_obj('REC', O, rec)", "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 0 || !slices.Equal(ans.Missing, []string{"REC"}) {
		t.Fatalf("degraded run: %d objects, missing %v; want 0 and [REC]", len(ans.Rows), ans.Missing)
	}
	calls := f.FaultStats().Calls
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 0 {
		t.Fatalf("cached degraded run has %d objects", got)
	}
	if reps, err := m.SyncSources(); err != nil || len(reps) != 0 {
		t.Fatalf("sync within the cooldown: %v, %v; want no report", reps, err)
	}
	if f.FaultStats().Calls != calls {
		t.Errorf("a read or a sync within the breaker cooldown contacted the wrapper")
	}
	time.Sleep(200 * time.Millisecond)
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 0 {
		t.Fatalf("a read after the cooldown re-probed: %d objects", got)
	}
	if f.FaultStats().Calls != calls {
		t.Errorf("a read after the cooldown contacted the wrapper")
	}
	reps, err := m.SyncSources()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Source != "REC" || !reps[0].Full {
		t.Fatalf("sync after the cooldown reported %v, want one Full report of REC", reps)
	}
	ans, err = m.Query("src_obj('REC', O, rec)", "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 5 || ans.Missing != nil {
		t.Fatalf("re-admitted run: %d objects, missing %v; want 5 and none", len(ans.Rows), ans.Missing)
	}
	if got := countRows(t, m, "anchor('REC', O, spine)", "O"); got != 5 {
		t.Fatalf("recovered run has %d anchor facts, want 5", got)
	}
	if r := reportFor(t, m.SourceReports(), "REC"); r.Status != StatusOK {
		t.Errorf("recovered report = %+v, want ok", r)
	}
}

// TestGuardJitterDecorrelates: concurrent fan-outs must not back off in
// lockstep, so distinct guards draw distinct jitter sequences.
func TestGuardJitterDecorrelates(t *testing.T) {
	opts := fastRetry(3)
	m := New(sources.NeuroDM(), &opts)
	draws := map[time.Duration]bool{}
	for i := 0; i < 8; i++ {
		draws[m.newGuard().backoff(1)] = true
	}
	if len(draws) == 1 {
		t.Errorf("8 guards drew the identical first jitter %v; seeds are not decorrelated", draws)
	}
}

// TestPermanentErrorsNotRetried: a capability miss is not source
// sickness — the guard must not burn retries on it, and PushSelect
// still falls back to scan-and-filter.
func TestPermanentErrorsNotRetried(t *testing.T) {
	m, f := newUnitMediator(t, 8, wrapper.FaultConfig{}, fastRetry(3))
	res, err := m.PushSelect("REC", "rec",
		wrapper.Selection{Attr: "value", Value: term.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pushed {
		t.Error("scan-only source reported a pushed selection")
	}
	if len(res.Objs) != 1 {
		t.Fatalf("filtered scan returned %d objects, want 1", len(res.Objs))
	}
	// Exactly two wrapper calls: the rejected pushdown and the scan —
	// a retried permanent error would show more.
	if calls := f.FaultStats().Calls; calls != 2 {
		t.Errorf("wrapper saw %d calls, want 2 (no retries of permanent errors)", calls)
	}
}

// TestPushSelectDownSourceSkipsScan: once the retry budget is gone the
// scan fallback must not run — it would just burn the budget again.
func TestPushSelectDownSourceSkipsScan(t *testing.T) {
	m, f := newUnitMediator(t, 4, wrapper.FaultConfig{Down: true}, fastRetry(1))
	_, err := m.PushSelect("REC", "rec")
	var sde *SourceDownError
	if !errors.As(err, &sde) {
		t.Fatalf("error = %v, want SourceDownError", err)
	}
	if calls := f.FaultStats().Calls; calls != 2 {
		t.Errorf("wrapper saw %d calls, want 2 (1 attempt + 1 retry, no scan fallback)", calls)
	}
}
