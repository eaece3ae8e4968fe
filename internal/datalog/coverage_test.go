package datalog

import (
	"strings"
	"testing"

	"modelmed/internal/term"
)

func TestNegateFlips(t *testing.T) {
	l := Lit("p", atom("a"))
	n := l.Negate()
	if !n.Neg || l.Neg {
		t.Error("Negate should flip a copy")
	}
	if n.Negate().Neg {
		t.Error("double negation")
	}
}

func TestProgramAddString(t *testing.T) {
	p := &Program{}
	p.Add(Fact("p", atom("a")), NewRule(Lit("q", v("X")), Lit("p", v("X"))))
	s := p.String()
	if !strings.Contains(s, "p(a).") || !strings.Contains(s, "q(X) :- p(X).") {
		t.Errorf("Program.String = %q", s)
	}
}

func TestAddProgramAndFactCount(t *testing.T) {
	p := &Program{}
	p.Add(Fact("p", atom("a")))
	e := NewEngine(nil)
	if err := e.AddProgram(p); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("q", atom("b")); err != nil {
		t.Fatal(err)
	}
	if got := e.FactCount(); got != 1 {
		t.Errorf("FactCount counts extensional facts only: %d", got)
	}
	res := mustRun(t, e)
	if !res.Holds("p", atom("a")) || !res.Holds("q", atom("b")) {
		t.Error("program and fact should both hold")
	}
}

func TestArithmeticExtendedOps(t *testing.T) {
	s := term.NewSubst()
	cases := []struct {
		expr term.Term
		want term.Term
	}{
		{term.Comp("//", term.Int(7), term.Int(2)), term.Int(3)},
		{term.Comp("min", term.Int(3), term.Int(5)), term.Int(3)},
		{term.Comp("max", term.Int(3), term.Int(5)), term.Int(5)},
		{term.Comp("min", term.Float(1.5), term.Int(2)), term.Float(1.5)},
		{term.Comp("max", term.Float(2.5), term.Int(2)), term.Float(2.5)},
		{term.Comp("abs", term.Int(-4)), term.Int(4)},
		{term.Comp("abs", term.Float(-1.5)), term.Float(1.5)},
		{term.Comp("neg", term.Float(2.5)), term.Float(-2.5)},
		{term.Comp("-", term.Int(10), term.Float(0.5)), term.Float(9.5)},
		{term.Comp("*", term.Float(2), term.Float(3)), term.Float(6)},
	}
	for _, c := range cases {
		got, err := EvalArith(c.expr, s)
		if err != nil {
			t.Errorf("EvalArith(%v): %v", c.expr, err)
			continue
		}
		if !got.Equal(c.want) {
			t.Errorf("EvalArith(%v) = %v, want %v", c.expr, got, c.want)
		}
	}
	// Error paths.
	for _, bad := range []term.Term{
		term.Comp("//", term.Float(1), term.Int(2)),
		term.Comp("//", term.Int(1), term.Int(0)),
		term.Comp("mod", term.Int(1), term.Int(0)),
		term.Comp("mod", term.Float(1), term.Int(2)),
		term.Comp("bogus", term.Int(1), term.Int(2)),
		term.Comp("bogus1", term.Int(1)),
		term.Var("X"),
		term.Str("s"),
	} {
		if _, err := EvalArith(bad, s); err == nil {
			t.Errorf("EvalArith(%v) should fail", bad)
		}
	}
}

func TestBuiltinTermOrderComparison(t *testing.T) {
	// Non-numeric comparisons use the standard term order.
	e := NewEngine(nil)
	if err := e.AddFact("w", atom("alpha")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("w", atom("beta")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(NewRule(Lit("first", v("X")),
		Lit("w", v("X")), Lit(BuiltinLess, v("X"), atom("beta")))); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if !res.Holds("first", atom("alpha")) || res.Holds("first", atom("beta")) {
		t.Error("atom comparison via term order failed")
	}
}

func TestBuiltinErrors(t *testing.T) {
	s := term.NewSubst()
	// \= with unbound argument.
	if _, _, err := evalBuiltin(Lit(BuiltinNotEq, v("X"), atom("a")), s); err == nil {
		t.Error("\\= with unbound arg should error")
	}
	// comparison with unbound non-arith argument.
	if _, _, err := evalBuiltin(Lit(BuiltinLess, v("X"), atom("a")), s); err == nil {
		t.Error("< with unbound arg should error")
	}
	// is with non-numeric rhs.
	if _, _, err := evalBuiltin(Lit(BuiltinIs, v("X"), atom("a")), s); err == nil {
		t.Error("is with atom rhs should error")
	}
	// unknown builtin rejected at the dispatcher.
	if _, _, err := evalBuiltin(Literal{Pred: "~~", Args: []term.Term{atom("a"), atom("b")}}, s); err == nil {
		t.Error("unknown builtin should error")
	}
	if IsBuiltin("=", 3) || IsBuiltin("p", 2) {
		t.Error("IsBuiltin arity/name checks wrong")
	}
}

func TestBuiltinUnifyBothDirections(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddFact("p", atom("a")); err != nil {
		t.Fatal(err)
	}
	// Y bound through = from a compound over a bound variable.
	if err := e.AddRule(NewRule(Lit("q", v("Y")),
		Lit("p", v("X")), Lit(BuiltinUnify, term.Comp("pair", v("X"), atom("k")), v("Y")))); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if !res.Holds("q", term.Comp("pair", atom("a"), atom("k"))) {
		t.Error("= should bind in either direction")
	}
}

func TestAggregateVarsIncludesEverything(t *testing.T) {
	agg := Aggregate{Result: v("N"), Op: AggSum, Value: v("A"),
		GroupBy: []term.Term{v("G")}, Key: []term.Term{v("O")},
		Body: []Literal{Lit("m", v("G"), v("O"), v("A"))}}
	vars := agg.Vars(nil)
	for _, want := range []string{"N", "A", "G", "O"} {
		found := false
		for _, got := range vars {
			if got == want {
				found = true
			}
		}
		if !found {
			t.Errorf("Vars missing %s: %v", want, vars)
		}
	}
	// RenameApart covers aggregates too.
	r := NewRule(Lit("h", v("G"), v("N")), agg)
	r2 := r.RenameApart(9)
	for _, name := range r2.Vars(nil) {
		if !strings.HasSuffix(name, "#9") {
			t.Errorf("var %s not renamed", name)
		}
	}
}
