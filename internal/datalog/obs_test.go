package datalog

import (
	"reflect"
	"testing"

	"modelmed/internal/obs"
	"modelmed/internal/term"
)

// tcProgram loads a small transitive-closure program: e-facts over an
// n-chain plus t(X,Y) :- e(X,Y) and t(X,Z) :- e(X,Y), t(Y,Z).
func tcProgram(t *testing.T, e *Engine, n int) {
	t.Helper()
	if err := e.AddRules(
		Rule{Head: Lit("t", term.Var("X"), term.Var("Y")), Body: []BodyElem{Lit("e", term.Var("X"), term.Var("Y"))}},
		Rule{Head: Lit("t", term.Var("X"), term.Var("Z")), Body: []BodyElem{
			Lit("e", term.Var("X"), term.Var("Y")), Lit("t", term.Var("Y"), term.Var("Z")),
		}},
	); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := e.AddFact("e", term.Int(int64(i)), term.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRunTraceRecordsStrataAndRounds(t *testing.T) {
	root := obs.New("test")
	ctr := obs.NewCounters()
	e := NewEngine(&Options{Trace: root, Counters: ctr})
	tcProgram(t, e, 12)
	res, err := e.Run()
	if err != nil {
		t.Fatal(err)
	}
	root.End()
	run := root.Find("datalog.run")
	if run == nil {
		t.Fatalf("no datalog.run span:\n%s", root.Render())
	}
	if mode, _ := run.Str("mode"); mode != "stratified" {
		t.Fatalf("mode = %q", mode)
	}
	strata := run.Children()
	if len(strata) == 0 {
		t.Fatal("no stratum spans")
	}
	// The chain closure needs many semi-naive rounds; the per-round
	// children and the counters must agree with the Result.
	var rounds int64
	for _, s := range strata {
		if v, ok := s.Int("rounds"); ok {
			rounds += v
		}
	}
	if rounds != int64(res.Rounds) {
		t.Fatalf("span rounds %d != result rounds %d", rounds, res.Rounds)
	}
	if got := ctr.Get("datalog.rounds"); got != int64(res.Rounds) {
		t.Fatalf("counter rounds %d != %d", got, res.Rounds)
	}
	if got := ctr.Get("datalog.firings"); got != int64(res.Firings) {
		t.Fatalf("counter firings %d != %d", got, res.Firings)
	}
	if ctr.Get("datalog.facts_derived") <= 0 {
		t.Fatal("no facts_derived counter")
	}
}

// TestTraceDoesNotChangeResult pins the zero-interference contract:
// tracing on vs. off yields the identical store and counters.
func TestTraceDoesNotChangeResult(t *testing.T) {
	run := func(trace bool) *Result {
		opts := &Options{}
		if trace {
			opts.Trace = obs.New("root")
			opts.Counters = obs.NewCounters()
		}
		e := NewEngine(opts)
		tcProgram(t, e, 20)
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	base, traced := run(false), run(true)
	if traced.Store.Size() != base.Store.Size() {
		t.Fatalf("traced size %d != %d", traced.Store.Size(), base.Store.Size())
	}
	if traced.Rounds != base.Rounds || traced.Firings != base.Firings {
		t.Fatalf("traced metrics (%d,%d) != (%d,%d)",
			traced.Rounds, traced.Firings, base.Rounds, base.Firings)
	}
	rows, err := traced.Query([]BodyElem{Lit("t", term.Var("X"), term.Var("Y"))}, []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	baseRows, err := base.Query([]BodyElem{Lit("t", term.Var("X"), term.Var("Y"))}, []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rows, baseRows) {
		t.Fatal("traced rows differ")
	}
}
