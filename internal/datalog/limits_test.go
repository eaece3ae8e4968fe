package datalog

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"modelmed/internal/term"
)

// runawayEngine builds the minimal non-terminating program: integers
// have term depth 1, so MaxTermDepth cannot stop it — without a gas or
// round budget only MaxIterations eventually would.
//
//	counter(0).
//	counter(Y) :- counter(X), Y is X+1.
func runawayEngine(t *testing.T, opts *Options) *Engine {
	t.Helper()
	e := NewEngine(opts)
	if err := e.AddFact("counter", term.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(NewRule(Lit("counter", v("Y")),
		Lit("counter", v("X")),
		Lit(BuiltinIs, v("Y"), term.Comp("+", v("X"), term.Int(1))))); err != nil {
		t.Fatal(err)
	}
	return e
}

// closureEngine builds one transitive-closure chain: chain*(chain+1)/2
// derivations when complete.
func closureEngine(t *testing.T, opts *Options, chain int) *Engine {
	t.Helper()
	e := NewEngine(opts)
	for i := 0; i < chain; i++ {
		if err := e.AddFact("edge", term.Int(int64(i)), term.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddRules(
		NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
		NewRule(Lit("tc", v("X"), v("Y")), Lit("tc", v("X"), v("Z")), Lit("edge", v("Z"), v("Y"))),
	); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestFactBudgetReturnsTypedError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		opts  Options
		procs int // GOMAXPROCS for the run; 0 leaves it alone
	}{
		{"compiled", Options{}, 0},
		{"interpreted", Options{Interpret: true}, 0},
		{"workers4", Options{}, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.procs > 0 {
				setProcs(t, tc.procs)
			}
			opts := tc.opts
			opts.Limits = Limits{MaxDerivedFacts: 500}
			e := runawayEngine(t, &opts)
			_, err := e.RunCtx(context.Background())
			var be *ErrBudgetExceeded
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want *ErrBudgetExceeded", err)
			}
			if be.Kind != BudgetFacts {
				t.Fatalf("Kind = %q, want %q", be.Kind, BudgetFacts)
			}
			if be.Limit != 500 || be.Spent < 500 {
				t.Fatalf("Spent/Limit = %d/%d, want spent >= limit = 500", be.Spent, be.Limit)
			}
		})
	}
}

func TestFactBudgetSparesCompletingRuns(t *testing.T) {
	// A budget above the run's real cost must never fire, in either
	// evaluation mode: the limit-checked run derives exactly what an
	// unlimited run does.
	const chain = 40 // 820 derivations
	for _, interpret := range []bool{false, true} {
		e := closureEngine(t, &Options{
			Interpret: interpret,
			Limits:    Limits{MaxDerivedFacts: 100_000, MaxRounds: 10_000},
		}, chain)
		res, err := e.RunCtx(context.Background())
		if err != nil {
			t.Fatalf("interpret=%v: %v", interpret, err)
		}
		if got, want := res.Store.Count("tc/2"), chain*(chain+1)/2; got != want {
			t.Fatalf("interpret=%v: tc count = %d, want %d", interpret, got, want)
		}
	}
}

func TestRoundBudgetReturnsTypedError(t *testing.T) {
	opts := &Options{Limits: Limits{MaxRounds: 20}}
	e := runawayEngine(t, opts)
	_, err := e.RunCtx(context.Background())
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("err = %v, want *ErrBudgetExceeded", err)
	}
	if be.Kind != BudgetRounds {
		t.Fatalf("Kind = %q, want %q", be.Kind, BudgetRounds)
	}
}

func TestErrBudgetExceededMessage(t *testing.T) {
	err := &ErrBudgetExceeded{Kind: BudgetFacts, Spent: 1024, Limit: 1000}
	want := "datalog: derived-facts budget exceeded (spent 1024, limit 1000)"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
	// A wrapped budget error must stay visible to errors.As — the serve
	// layer's 422 mapping depends on it.
	wrapped := fmt.Errorf("mediator: materialize: %w", err)
	var be *ErrBudgetExceeded
	if !errors.As(wrapped, &be) || be.Spent != 1024 {
		t.Fatalf("errors.As through wrap failed: %v", wrapped)
	}
}

func TestContextCancelStopsFixpointMidStratum(t *testing.T) {
	// No Limits at all: the deadline alone must stop the runaway
	// recursion from inside the stratum's fixpoint loop.
	e := runawayEngine(t, &Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.RunCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("fixpoint ran %v past a 30ms deadline", elapsed)
	}
}

func TestPreCancelledContextStopsRunImmediately(t *testing.T) {
	e := closureEngine(t, &Options{}, 20)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.RunCtx(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryCtxSpendsGas(t *testing.T) {
	// A conjunctive query's solutions charge the same meter: a
	// cross-product wider than the budget dies with the typed error
	// even though evaluation (one join, no recursion) would terminate.
	e := NewEngine(&Options{Limits: Limits{MaxDerivedFacts: 5_000}})
	for i := 0; i < 100; i++ {
		if err := e.AddFact("p", term.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
		if err := e.AddFact("q", term.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	body := []BodyElem{Lit("p", v("X")), Lit("q", v("Y")), Lit("r", v("Z"))}
	if err := e.AddFact("r", term.Int(0)); err != nil {
		t.Fatal(err)
	}
	// Re-run so r exists in the result store.
	res, err = e.Run()
	if err != nil {
		t.Fatal(err)
	}
	_, err = res.QueryCtx(context.Background(), body, []string{"X", "Y"})
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("query err = %v, want *ErrBudgetExceeded", err)
	}
	// A narrower query under the budget still works on the same result.
	rows, err := res.QueryCtx(context.Background(), []BodyElem{Lit("p", v("X"))}, []string{"X"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 100 {
		t.Fatalf("rows = %d, want 100", len(rows))
	}
}

// TestAggregateBodyIsMetered: an aggregate's inner solutions charge the
// meter as a query's rows do, so wrapping a cross product in count{…}
// does not take its 12^4 = 20,736 solutions out of the budget, though
// the aggregate derives one row.
func TestAggregateBodyIsMetered(t *testing.T) {
	e := NewEngine(&Options{Limits: Limits{MaxDerivedFacts: 10_000}})
	for i := 0; i < 12; i++ {
		if err := e.AddFact("p", term.Atom(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	count := Aggregate{Result: v("N"), Op: AggCount, Value: v("A"),
		Body: []Literal{Lit("p", v("A")), Lit("p", v("B")), Lit("p", v("C")), Lit("p", v("D"))}}
	rows, err := res.QueryCtx(context.Background(), []BodyElem{count}, []string{"N"})
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) || be.Kind != BudgetFacts {
		t.Fatalf("count over a 20,736-solution body: rows %v, err %v, want *ErrBudgetExceeded (%s)", rows, err, BudgetFacts)
	}
	// Three literals, 1,728 solutions, fit.
	count.Body = count.Body[:3]
	rows, err = res.QueryCtx(context.Background(), []BodyElem{count}, []string{"N"})
	if err != nil || len(rows) != 1 || rows[0][0].String() != "12" {
		t.Fatalf("count over a 1,728-solution body: rows %v, err %v, want [[12]]", rows, err)
	}
}

func TestQueryCtxHonoursCancelledContext(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddFact("p", term.Int(1)); err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := res.QueryCtx(ctx, []BodyElem{Lit("p", v("X"))}, []string{"X"}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDeltaPathChargesGas(t *testing.T) {
	// The initial run terminates (the guard relation is empty); the
	// delta arms the runaway rule, so the insertion wave must hit the
	// gas meter instead of spinning forever.
	e := NewEngine(&Options{Limits: Limits{MaxDerivedFacts: 1000}})
	if err := e.AddFact("counter", term.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(NewRule(Lit("counter", v("Y")),
		Lit("counter", v("X")),
		Lit("bump", v("B")),
		Lit(BuiltinIs, v("Y"), term.Comp("+", v("X"), term.Int(1))))); err != nil {
		t.Fatal(err)
	}
	prev, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	if err := d.Add("bump", term.Int(1)); err != nil {
		t.Fatal(err)
	}
	_, err = e.ApplyDeltaCtx(context.Background(), prev, d)
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("delta err = %v, want *ErrBudgetExceeded", err)
	}
}

func TestDeltaPathHonoursCancelledContext(t *testing.T) {
	e := closureEngine(t, &Options{}, 10)
	prev, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	if err := d.Add("edge", term.Int(10), term.Int(11)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.ApplyDeltaCtx(ctx, prev, d); !errors.Is(err, context.Canceled) {
		t.Fatalf("delta err = %v, want context.Canceled", err)
	}
}

func TestBudgetErrorLeavesEngineReusable(t *testing.T) {
	// After a budget kill the engine's EDB and program are intact: the
	// same engine re-run with an adequate budget completes normally.
	// (Limits live in Options, so reusability is demonstrated across
	// engines sharing one EDB shape rather than by mutating Options.)
	e := closureEngine(t, &Options{Limits: Limits{MaxDerivedFacts: 50}}, 40)
	if _, err := e.RunCtx(context.Background()); err == nil {
		t.Fatal("run under a 50-fact budget should have failed")
	}
	// The same engine still answers: a second run spends a fresh
	// budget and fails identically rather than corrupting state...
	_, err := e.RunCtx(context.Background())
	var be *ErrBudgetExceeded
	if !errors.As(err, &be) {
		t.Fatalf("second run err = %v, want *ErrBudgetExceeded", err)
	}
	// ...and an identically-shaped engine with headroom completes.
	e2 := closureEngine(t, &Options{Limits: Limits{MaxDerivedFacts: 100_000}}, 40)
	res, err := e2.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Store.Count("tc/2"), 40*41/2; got != want {
		t.Fatalf("tc count = %d, want %d", got, want)
	}
}
