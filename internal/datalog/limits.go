package datalog

// Cooperative gas limits. Every evaluation entry point (Engine.RunCtx,
// Engine.ApplyDeltaCtx, Result.QueryCtx) builds one limiter from the
// caller's context and the engine's Limits, and threads it into every
// evalCtx the evaluation spawns — including the fresh contexts of the
// DRed phases. The budget is checked at two cadences: once per
// semi-naive round (every loop that can iterate: stratum fixpoints, the
// alternating Γ sequence, the DRed overdeletion and insertion waves),
// and once every gasStride head
// instantiations inside a round, so a single cross-product rule firing
// cannot eat the process between barriers. A tripped budget surfaces as
// *ErrBudgetExceeded; a fired context surfaces as the context's own
// error, so callers keep their Deadline/Canceled mappings. Either way
// the engine stays usable: full runs derive into clones of the EDB and
// incremental patches are discarded on error.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// Limits bounds the resource spend of one evaluation (a full Run, an
// ApplyDelta, or a Result.QueryCtx enumeration). The zero value means
// unlimited; a context passed to the *Ctx entry points is honored
// whether or not limits are set.
type Limits struct {
	// MaxDerivedFacts caps head instantiations across the whole
	// evaluation (all strata, all rounds, all Γ runs), and with them
	// the inner solutions every aggregate enumerates, each charged as
	// one. It counts work, not net growth: re-derivations of known
	// facts spend budget too, which is what makes it a gas meter rather
	// than a size cap. 0 = unlimited.
	MaxDerivedFacts int
	// MaxRounds caps semi-naive rounds summed across strata, Γ runs and
	// DRed phases. 0 = unlimited (MaxIterations still bounds each
	// individual fixpoint).
	MaxRounds int
	// MaxWallClock caps one evaluation's elapsed wall time, checked on
	// the same cooperative cadence as the gas meter (per round and per
	// gasStride derivations). Unlike a context deadline it needs no
	// caller plumbing and surfaces as *ErrBudgetExceeded (a client
	// error), not context.DeadlineExceeded (an outage); a context
	// passed alongside still wins with its own error. 0 = unlimited.
	MaxWallClock time.Duration
}

func (l Limits) enabled() bool {
	return l.MaxDerivedFacts > 0 || l.MaxRounds > 0 || l.MaxWallClock > 0
}

// Budget kinds reported by ErrBudgetExceeded.
const (
	BudgetFacts  = "derived-facts"
	BudgetRounds = "rounds"
	BudgetWall   = "wall-clock"
)

// ErrBudgetExceeded reports that an evaluation ran out of gas. Spent is
// the budget consumed when the check tripped. Fact gas is reserved in
// strides, so Spent also counts what an evaluation context had reserved
// but not yet used.
type ErrBudgetExceeded struct {
	Kind  string // BudgetFacts, BudgetRounds or BudgetWall
	Spent int    // for BudgetWall: elapsed milliseconds
	Limit int    // for BudgetWall: the cap in milliseconds
}

func (e *ErrBudgetExceeded) Error() string {
	return fmt.Sprintf("datalog: %s budget exceeded (spent %d, limit %d)", e.Kind, e.Spent, e.Limit)
}

// gasStride is how many head instantiations an evaluation context may
// derive between looks at the shared budget and the context. Large
// enough that the atomic traffic disappears in the join cost (armed vs
// disarmed limits on the compiled axiom-closure fixpoint measured
// within noise, -2.2%, on a one-CPU host), small enough that a runaway
// rule is stopped within a few thousand derivations.
const gasStride = 2048

// limiter is the shared gas meter of one evaluation. It is created once
// per entry point and shared by every evalCtx of that evaluation; the
// contexts draw stride-sized allotments from the fact budget so the hot
// path pays one integer decrement per derivation.
type limiter struct {
	ctx       context.Context
	done      <-chan struct{} // ctx.Done(), cached; nil when never cancellable
	maxFacts  int64
	maxRounds int64
	maxWall   time.Duration
	start     time.Time    // evaluation start; zero when maxWall is unset
	facts     atomic.Int64 // gas reserved so far (includes unspent stride tails)
	rounds    atomic.Int64
}

// newLimiter returns the evaluation's gas meter, or nil when neither
// the context nor the limits can ever fire — the unlimited path then
// costs one nil check per derivation and per round.
func newLimiter(ctx context.Context, l Limits) *limiter {
	if ctx == nil {
		ctx = context.Background()
	}
	done := ctx.Done()
	if done == nil && !l.enabled() {
		return nil
	}
	lim := &limiter{
		ctx:       ctx,
		done:      done,
		maxFacts:  int64(l.MaxDerivedFacts),
		maxRounds: int64(l.MaxRounds),
		maxWall:   l.MaxWallClock,
	}
	if l.MaxWallClock > 0 {
		lim.start = time.Now()
	}
	return lim
}

// ctxErr returns the context's error once it has fired. Nil-receiver
// safe.
func (l *limiter) ctxErr() error {
	if l == nil || l.done == nil {
		return nil
	}
	select {
	case <-l.done:
		return l.ctx.Err()
	default:
		return nil
	}
}

// wallErr checks the wall-clock budget. It shares the gas cadence
// (per round plus per stride), so one time.Now() call amortizes over
// gasStride derivations. Nil-receiver safe.
func (l *limiter) wallErr() error {
	if l == nil || l.maxWall <= 0 {
		return nil
	}
	if elapsed := time.Since(l.start); elapsed > l.maxWall {
		return &ErrBudgetExceeded{
			Kind:  BudgetWall,
			Spent: int(elapsed / time.Millisecond),
			Limit: int(l.maxWall / time.Millisecond),
		}
	}
	return nil
}

// grant reserves up to gasStride head instantiations from the shared
// fact budget and returns how many the caller may spend before asking
// again. Near the cap the grant shrinks to the exact remainder, so a
// small budget is enforced precisely; reserved-but-unspent gas stays
// counted, an overestimate bounded by one stride per evaluation context.
func (l *limiter) grant() (int, error) {
	if err := l.ctxErr(); err != nil {
		return 0, err
	}
	if err := l.wallErr(); err != nil {
		return 0, err
	}
	if l.maxFacts <= 0 {
		return gasStride, nil
	}
	for {
		cur := l.facts.Load()
		rem := l.maxFacts - cur
		if rem <= 0 {
			return 0, &ErrBudgetExceeded{Kind: BudgetFacts, Spent: int(cur), Limit: int(l.maxFacts)}
		}
		n := rem
		if n > gasStride {
			n = gasStride
		}
		if l.facts.CompareAndSwap(cur, cur+n) {
			return int(n), nil
		}
	}
}

// round charges one evaluation round (a semi-naive round, a DRed wave,
// or a Γ step) and checks both the round budget and the context.
// Nil-receiver safe.
func (l *limiter) round() error {
	if l == nil {
		return nil
	}
	if err := l.ctxErr(); err != nil {
		return err
	}
	if err := l.wallErr(); err != nil {
		return err
	}
	n := l.rounds.Add(1)
	if l.maxRounds > 0 && n > l.maxRounds {
		return &ErrBudgetExceeded{Kind: BudgetRounds, Spent: int(n), Limit: int(l.maxRounds)}
	}
	return nil
}

// spendGas charges one head instantiation against the evaluation's
// budget, drawing a fresh stride from the shared limiter when the local
// allotment runs dry. This is the per-derivation hook of both the
// interpreted path (deriveHead) and the compiled executor (cExec.emit),
// and the per-solution hook of an aggregate's inner body
// (evalAggregate); with no limiter attached it is a single nil check.
func (ev *evalCtx) spendGas() error {
	if ev.lim == nil {
		return nil
	}
	if ev.gas <= 0 {
		n, err := ev.lim.grant()
		if err != nil {
			return err
		}
		ev.gas = n
	}
	ev.gas--
	return nil
}
