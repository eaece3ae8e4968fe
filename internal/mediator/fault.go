package mediator

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/obs"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// The fault-tolerance layer. Live sources time out, flake, hang, or
// die. Queries never read them; the reads — a build's, a refresh's or
// sync's (readAhead) and PushSelect's — can run every wrapper call
// under a guard: a per-call deadline, retries with exponential backoff
// + jitter, and a per-source circuit breaker. A source that stays down
// degrades instead of failing the read: a held state stays, a source
// with none is left out of the published value (Answer.Missing), and a
// SourceReport says what happened. SyncSources reads a left-out source
// again once its breaker admits a call.
//
// The layer is off by default: a read then renders the exported CM(S)
// without query calls, and any failure fails it. Any of
// Options.SourceTimeout, MaxRetries or Breaker.Threshold switches it on.

// SourceStatus classifies how a source fared during one fan-out.
type SourceStatus int

const (
	// StatusOK: every call answered on the first attempt.
	StatusOK SourceStatus = iota
	// StatusDegraded: the source contributed, but only after retries
	// (or a breaker probe).
	StatusDegraded
	// StatusFailed: the source exhausted its retry budget (or stayed
	// behind an open breaker) and was excluded from the answer.
	StatusFailed
)

func (s SourceStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	case StatusFailed:
		return "failed"
	}
	return "invalid"
}

// SourceReport is the per-source outcome of one guarded read (a build,
// a refresh or sync, or a PushSelect).
type SourceReport struct {
	Source string
	Status SourceStatus
	// Attempts counts wrapper calls issued, including retries.
	Attempts int
	// Retries counts attempts beyond the first, summed over the calls.
	Retries int
	// Timeouts counts attempts cut off by SourceTimeout.
	Timeouts int
	// BreakerTrips counts calls rejected by an open breaker.
	BreakerTrips int
	// Elapsed is the wall time spent talking to (and backing off from)
	// the source.
	Elapsed time.Duration
	// Err is the final error of a failed source ("" otherwise).
	Err string
	// down is that error, the *SourceDownError a read of the dropped
	// source returns (downError).
	down error
}

func (r SourceReport) String() string {
	s := fmt.Sprintf("%s: %s (%d attempts, %d retries, %d timeouts, %v)",
		r.Source, r.Status, r.Attempts, r.Retries, r.Timeouts, r.Elapsed.Round(time.Microsecond))
	if r.Err != "" {
		s += ": " + r.Err
	}
	return s
}

// SourceDownError reports that a source exhausted its retry and
// breaker budget; the read degrades over it.
type SourceDownError struct {
	Source string
	Cause  error
}

func (e *SourceDownError) Error() string {
	return fmt.Sprintf("mediator: source %s is down: %v", e.Source, e.Cause)
}

func (e *SourceDownError) Unwrap() error { return e.Cause }

// timeoutError is a deadline cut; it is transient (the next attempt
// may answer in time).
type timeoutError struct {
	source string
	after  time.Duration
}

func (e *timeoutError) Error() string {
	return fmt.Sprintf("mediator: source %s: call exceeded %v deadline", e.source, e.after)
}

// Transient marks the timeout as retryable.
func (e *timeoutError) Transient() bool { return true }

// errBreakerOpen rejects a call without contacting the source.
var errBreakerOpen = errors.New("circuit breaker open")

// faultTolerant reports whether the guarded fan-out path is enabled.
func (o *Options) faultTolerant() bool {
	return o.SourceTimeout > 0 || o.MaxRetries > 0 || o.Breaker.Threshold > 0
}

// retryBase/retryMax resolve backoff defaults.
func (o *Options) retryBase() time.Duration {
	if o.RetryBase > 0 {
		return o.RetryBase
	}
	return time.Millisecond
}

func (o *Options) retryMax() time.Duration {
	if o.RetryMax > 0 {
		return o.RetryMax
	}
	return 100 * time.Millisecond
}

// breakerFor returns the mediator's breaker for a source (nil, which
// admits everything, when the breaker is disabled). Breaker state
// persists across queries: a source that died during one query stays
// open for the next until it cools down.
func (m *Mediator) breakerFor(source string) *breaker.Breaker {
	if m.opts.Breaker.Threshold <= 0 {
		return nil
	}
	m.faultMu.Lock()
	defer m.faultMu.Unlock()
	if m.breakers == nil {
		m.breakers = map[string]*breaker.Breaker{}
	}
	b := m.breakers[source]
	if b == nil {
		cfg := m.opts.Breaker
		if cfg.Cooldown <= 0 {
			cfg.Cooldown = time.Second
		}
		b = breaker.New(cfg)
		m.breakers[source] = b
	}
	return b
}

// guard tracks one fan-out: it applies deadline/retry/breaker policy to
// every wrapper call and accumulates per-source reports.
type guard struct {
	m    *Mediator
	opts *Options
	// ctx is the requesting caller's context: cancelling it abandons the
	// fan-out mid-flight (in-flight wrapper calls are dropped, pending
	// retries and backoff sleeps are cut short). Never nil.
	ctx context.Context
	// ctr is the mediator's observability sink, captured once per
	// fan-out (nil when tracing is off; all Adds are then no-ops).
	ctr *obs.Counters

	jmu sync.Mutex
	rng *rand.Rand // backoff jitter only; never observable in results

	rmu     sync.Mutex
	reports map[string]*SourceReport
}

// jitterSeq differentiates the jitter seed of each guard: mixed with
// the clock it gives every fan-out its own backoff sequence even when
// two guards are created within one clock tick.
var jitterSeq atomic.Int64

// newGuard returns a guard for one fan-out, or nil when the
// fault-tolerance layer is disabled (callers treat a nil guard as the
// direct path).
func (m *Mediator) newGuard() *guard {
	return m.newGuardCtx(context.Background())
}

// newGuardCtx is newGuard with the caller's cancellation context
// attached: the serving layer's per-request deadlines propagate through
// it into every wrapper call of the fan-out.
func (m *Mediator) newGuardCtx(ctx context.Context) *guard {
	if !m.opts.faultTolerant() {
		return nil
	}
	return &guard{
		m:       m,
		opts:    &m.opts,
		ctx:     ctx,
		ctr:     m.counters(),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano() ^ jitterSeq.Add(1)<<32)),
		reports: map[string]*SourceReport{},
	}
}

// annotate mirrors the guard's fault-tolerance outcomes onto a fan-out
// span: aggregate retry/timeout/breaker attrs on sp itself, plus
// status/attempt attrs on any per-source child span ("source <name>")
// the caller created. Nil guard or span is a no-op.
func (g *guard) annotate(sp *obs.Span) {
	if g == nil || sp == nil {
		return
	}
	var retries, timeouts, trips int64
	for _, r := range g.Reports() {
		retries += int64(r.Retries)
		timeouts += int64(r.Timeouts)
		trips += int64(r.BreakerTrips)
		if ssp := sp.Find("source " + r.Source); ssp != nil {
			ssp.SetStr("status", r.Status.String())
			ssp.SetInt("attempts", int64(r.Attempts))
			if r.Retries > 0 {
				ssp.SetInt("retries", int64(r.Retries))
			}
			if r.Timeouts > 0 {
				ssp.SetInt("timeouts", int64(r.Timeouts))
			}
			if r.BreakerTrips > 0 {
				ssp.SetInt("breaker_trips", int64(r.BreakerTrips))
			}
		}
	}
	sp.SetInt("retries", retries)
	sp.SetInt("timeouts", timeouts)
	sp.SetInt("breaker_trips", trips)
}

// Reports returns the guard's per-source reports, sorted by source.
func (g *guard) Reports() []SourceReport {
	if g == nil {
		return nil
	}
	g.rmu.Lock()
	defer g.rmu.Unlock()
	out := make([]SourceReport, 0, len(g.reports))
	for _, r := range g.reports {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Source < out[j].Source })
	return out
}

func (g *guard) report(source string) *SourceReport {
	r := g.reports[source]
	if r == nil {
		r = &SourceReport{Source: source}
		g.reports[source] = r
	}
	return r
}

// markFailed records the terminal failure of a source.
func (g *guard) markFailed(source string, err error) {
	g.rmu.Lock()
	r := g.report(source)
	r.Status = StatusFailed
	r.Err, r.down = err.Error(), err
	g.rmu.Unlock()
}

// backoff computes the sleep before retry #attempt (1-based):
// base·2^(attempt-1) capped at max, then jittered to [d/2, d) so
// retry storms from concurrent fan-outs decorrelate.
func (g *guard) backoff(attempt int) time.Duration {
	d := g.opts.retryBase() << (attempt - 1)
	if max := g.opts.retryMax(); d > max || d <= 0 {
		d = max
	}
	g.jmu.Lock()
	j := g.rng.Int63n(int64(d)/2 + 1)
	g.jmu.Unlock()
	return d/2 + time.Duration(j)
}

// callResult carries a deadline-guarded call's outcome through a
// channel, so an abandoned (timed-out) call never races with the
// caller: the late result is simply dropped with the channel.
type callResult[T any] struct {
	v   T
	err error
}

// withDeadline runs fn, bounding it by the per-call source timeout and
// the caller's context. The wrapper interface is not context-aware, so
// a call that blows the deadline (or whose requester goes away) is
// abandoned: its goroutine finishes in the background and its result is
// discarded (the buffered channel keeps it from leaking).
func withDeadline[T any](ctx context.Context, source string, d time.Duration, fn func() (T, error)) (T, error) {
	if d <= 0 && ctx.Done() == nil {
		return fn()
	}
	ch := make(chan callResult[T], 1)
	go func() {
		v, err := fn()
		ch <- callResult[T]{v, err}
	}()
	var timeout <-chan time.Time
	if d > 0 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		timeout = timer.C
	}
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timeout:
		var zero T
		return zero, &timeoutError{source: source, after: d}
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// retryable reports whether an error may be retried: injected faults,
// timeouts, and anything else that marks itself Transient. Permanent
// errors (capability misses, unknown classes) pass through untouched.
func retryable(err error) bool { return wrapper.Transient(err) }

// call runs one logical wrapper call for a source under the full
// policy: breaker admission, per-attempt deadline, bounded retries
// with backoff. It returns the value, or a *SourceDownError when the
// source is unavailable, or the original error when it is permanent.
func guardedCall[T any](g *guard, source string, fn func() (T, error)) (T, error) {
	var zero T
	start := time.Now()
	br := g.m.breakerFor(source)
	defer func() {
		g.rmu.Lock()
		g.report(source).Elapsed += time.Since(start)
		g.rmu.Unlock()
	}()
	for attempt := 0; ; attempt++ {
		if err := g.ctx.Err(); err != nil {
			// The requester is gone. Cancellation says nothing about
			// source health, so it bypasses the breaker bookkeeping
			// entirely: no failure is recorded and nothing is retried.
			return zero, err
		}
		if !br.Allow() {
			g.rmu.Lock()
			r := g.report(source)
			r.BreakerTrips++
			g.rmu.Unlock()
			g.ctr.Add("mediator.breaker_rejections", 1)
			return zero, &SourceDownError{Source: source, Cause: errBreakerOpen}
		}
		v, err := withDeadline(g.ctx, source, g.opts.SourceTimeout, fn)
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			// As above: not a health signal, not retryable, not counted.
			return zero, err
		}
		g.rmu.Lock()
		r := g.report(source)
		r.Attempts++
		if attempt > 0 {
			r.Retries++
		}
		var tErr *timeoutError
		if errors.As(err, &tErr) {
			r.Timeouts++
			g.ctr.Add("mediator.source_timeouts", 1)
		}
		if err == nil && attempt > 0 && r.Status == StatusOK {
			r.Status = StatusDegraded
		}
		g.rmu.Unlock()
		g.ctr.Add("mediator.source_attempts", 1)
		if err == nil {
			br.Success()
			return v, nil
		}
		if !retryable(err) {
			// Permanent error: the caller's own fallback logic (scan
			// instead of pushdown, skip the class) handles it; it says
			// nothing about source *health* — the source answered, so for
			// the breaker this contact is a success: a recovered source
			// whose half-open call is a capability miss closes it.
			br.Success()
			return zero, err
		}
		if br.Failure(err) {
			g.ctr.Add("mediator.breaker_opened", 1)
		}
		if attempt >= g.opts.MaxRetries {
			return zero, &SourceDownError{Source: source, Cause: err}
		}
		g.ctr.Add("mediator.source_retries", 1)
		wait := g.backoff(attempt + 1)
		g.ctr.Add("mediator.backoff_wait_ns", wait.Nanoseconds())
		select {
		case <-time.After(wait):
		case <-g.ctx.Done():
			return zero, g.ctx.Err()
		}
	}
}

// queryObjects is the guarded form of Wrapper.QueryObjects. With a nil
// guard it calls straight through.
func (g *guard) queryObjects(s *Source, q wrapper.Query) ([]gcm.Object, error) {
	if g == nil {
		return s.W.QueryObjects(q)
	}
	return guardedCall(g, s.Name, func() ([]gcm.Object, error) { return s.W.QueryObjects(q) })
}

// queryTuples is the guarded form of Wrapper.QueryTuples.
func (g *guard) queryTuples(s *Source, q wrapper.Query) ([][]term.Term, error) {
	if g == nil {
		return s.W.QueryTuples(q)
	}
	return guardedCall(g, s.Name, func() ([][]term.Term, error) { return s.W.QueryTuples(q) })
}

// sourceDown reports whether an error is a terminal source failure that
// the fan-out should degrade over (rather than propagate).
func sourceDown(err error) bool {
	var d *SourceDownError
	return errors.As(err, &d)
}

// cancelled reports whether an error is a context cancellation or
// deadline; such errors must propagate verbatim — they are neither
// permanent capability misses (no snapshot fallback) nor source
// failures (no degradation).
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// guardedSourceFacts is the pull of readSource: it renders one source's
// data for the materialized program. Without a guard (or for
// fact-level sources) it translates the exported CM(S) (sourceFacts).
// With a guard and a live wrapper it *pulls the instance data through
// the wrapper* — objects per class and tuples per relation, under the
// deadline/retry/breaker policy, so a flaking source is retried and a
// dead one degrades — and renders them with the exported schema and
// semantic rules exactly as sourceFacts renders the export. A class or
// relation the wrapper cannot scan (a permanent error) keeps the
// export's instances.
func guardedSourceFacts(g *guard, s *Source) ([]datalog.Rule, error) {
	if g == nil || s.W == nil || s.Model == nil {
		return sourceFacts(s)
	}
	pulled := *s.Model
	pulled.Objects, pulled.Tuples = nil, make(map[string][][]term.Term, len(s.Model.Tuples))
	names := make([]string, 0, len(s.Model.Classes))
	for n := range s.Model.Classes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, cn := range names {
		objs, err := g.queryObjects(s, wrapper.Query{Target: cn})
		if err != nil {
			if sourceDown(err) || cancelled(err) {
				return nil, err
			}
			objs = s.Model.Objects
		}
		// QueryObjects returns the class and its descendants; keep only
		// the exact class so each object is rendered exactly once.
		for _, o := range objs {
			if o.Class == cn {
				pulled.Objects = append(pulled.Objects, o)
			}
		}
	}
	names = names[:0]
	for rn := range s.Model.Tuples {
		names = append(names, rn)
	}
	sort.Strings(names)
	for _, rn := range names {
		tps, err := g.queryTuples(s, wrapper.Query{Target: rn})
		if err != nil {
			if sourceDown(err) || cancelled(err) {
				return nil, err
			}
			tps = s.Model.Tuples[rn]
		}
		pulled.Tuples[rn] = tps
	}
	return sourceFacts(&Source{Name: s.Name, Model: &pulled})
}
