package datalog

// Tests for the wall-clock budget (Limits.MaxWallClock): a runaway
// evaluation must die with the typed *ErrBudgetExceeded on the gas
// cadence — no context plumbing required — while runs that finish in
// time never see it.

import (
	"context"
	"errors"
	"testing"
	"time"

	"modelmed/internal/term"
)

func TestWallClockBudgetReturnsTypedError(t *testing.T) {
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
			opts.Limits = Limits{MaxWallClock: 30 * time.Millisecond}
			e := runawayEngine(t, &opts)
			start := time.Now()
			_, err := e.RunCtx(context.Background())
			elapsed := time.Since(start)
			var be *ErrBudgetExceeded
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want *ErrBudgetExceeded", err)
			}
			if be.Kind != BudgetWall {
				t.Fatalf("Kind = %q, want %q", be.Kind, BudgetWall)
			}
			if be.Limit != 30 || be.Spent < be.Limit {
				t.Fatalf("Spent/Limit = %d/%d ms, want spent >= limit = 30", be.Spent, be.Limit)
			}
			// Cooperative, not instant: generous bound against CI noise.
			if elapsed > 10*time.Second {
				t.Fatalf("fixpoint ran %v past a 30ms wall budget", elapsed)
			}
		})
	}
}

func TestWallClockBudgetSparesCompletingRuns(t *testing.T) {
	// A chain closure completes in well under a minute; the budget must
	// never fire and the answer must match the unlimited run.
	const chain = 40
	e := closureEngine(t, &Options{Limits: Limits{MaxWallClock: time.Minute}}, chain)
	res, err := e.RunCtx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Store.Count("tc/2"), chain*(chain+1)/2; got != want {
		t.Fatalf("tc count = %d, want %d", got, want)
	}
}

func TestWallClockBudgetOnDeltaPath(t *testing.T) {
	// Same shape as TestDeltaPathChargesGas: the initial run terminates,
	// the delta arms the runaway rule, and the insertion wave must trip
	// the wall budget.
	e := NewEngine(&Options{Limits: Limits{MaxWallClock: 30 * time.Millisecond}})
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
	if be.Kind != BudgetWall {
		t.Fatalf("Kind = %q, want %q", be.Kind, BudgetWall)
	}
}

func TestContextDeadlineWinsOverWallBudget(t *testing.T) {
	// When both a context deadline and a wall budget are set, the one
	// that fires first decides the error. With an already-expired
	// context the caller keeps its Deadline/Canceled mapping.
	e := runawayEngine(t, &Options{Limits: Limits{MaxWallClock: time.Minute}})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := e.RunCtx(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

func TestWallBudgetErrorMessage(t *testing.T) {
	err := &ErrBudgetExceeded{Kind: BudgetWall, Spent: 45, Limit: 30}
	want := "datalog: wall-clock budget exceeded (spent 45, limit 30)"
	if err.Error() != want {
		t.Fatalf("Error() = %q, want %q", err.Error(), want)
	}
}
