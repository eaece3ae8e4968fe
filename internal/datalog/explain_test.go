package datalog

import (
	"strings"
	"testing"

	"modelmed/internal/term"
)

func TestExplainExtensional(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddFact("edge", atom("a"), atom("b")); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	d, err := e.Explain(res, "edge", atom("a"), atom("b"))
	if err != nil {
		t.Fatal(err)
	}
	if !d.Extensional {
		t.Error("base fact should be extensional")
	}
}

// TestExplainOlderResult: Explain answers about the result it is
// given, not about the engine's latest EDB.
func TestExplainOlderResult(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddFact("edge", atom("a"), atom("b")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y")))); err != nil {
		t.Fatal(err)
	}
	r0 := mustRun(t, e)
	d := NewDelta()
	if err := d.Del("edge", atom("a"), atom("b")); err != nil {
		t.Fatal(err)
	}
	r1, err := e.ApplyDelta(r0, d)
	if err != nil {
		t.Fatal(err)
	}
	if x, err := e.Explain(r0, "edge", atom("a"), atom("b")); err != nil || !x.Extensional {
		t.Errorf("edge(a,b) in the older result: %v, %v; want an extensional leaf", x, err)
	}
	if _, err := e.Explain(r1, "edge", atom("a"), atom("b")); err == nil || !strings.Contains(err.Error(), "is not true") {
		t.Errorf("edge(a,b) after its deletion: %v; want not true", err)
	}
}

func TestExplainTransitiveChain(t *testing.T) {
	e := NewEngine(nil)
	for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		if err := e.AddFact("edge", atom(p[0]), atom(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddRules(
		NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
		NewRule(Lit("tc", v("X"), v("Y")), Lit("tc", v("X"), v("Z")), Lit("edge", v("Z"), v("Y"))),
	); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	d, err := e.Explain(res, "tc", atom("a"), atom("d"))
	if err != nil {
		t.Fatal(err)
	}
	if d.Extensional {
		t.Fatal("tc(a,d) is derived")
	}
	// The proof tree must bottom out in edge facts.
	var leaves int
	var walk func(*Derivation)
	walk = func(x *Derivation) {
		if x.Extensional {
			if x.Pred != "edge" {
				t.Errorf("leaf %s should be an edge fact", x.Pred)
			}
			leaves++
			return
		}
		if len(x.Premises) == 0 {
			t.Errorf("derived node %s%s without premises", x.Pred, term.FormatTuple(x.Args))
		}
		for _, p := range x.Premises {
			walk(p)
		}
	}
	walk(d)
	if leaves != 3 {
		t.Errorf("proof of tc(a,d) should use 3 edges, used %d:\n%s", leaves, d)
	}
	if !strings.Contains(d.String(), "[fact]") || !strings.Contains(d.String(), "[by ") {
		t.Errorf("rendering:\n%s", d)
	}
}

func TestExplainNegationCondition(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddFact("node", atom("a")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("node", atom("b")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddFact("edge", atom("a"), atom("b")); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRules(
		NewRule(Lit("hasout", v("X")), Lit("edge", v("X"), v("Y"))),
		NewRule(Lit("sink", v("X")), Lit("node", v("X")), Not("hasout", v("X"))),
	); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	d, err := e.Explain(res, "sink", atom("b"))
	if err != nil {
		t.Fatal(err)
	}
	foundNeg := false
	for _, c := range d.Conditions {
		if strings.Contains(c, "not hasout") {
			foundNeg = true
		}
	}
	if !foundNeg {
		t.Errorf("negation should appear as a condition: %+v", d.Conditions)
	}
}

func TestExplainAggregateCondition(t *testing.T) {
	e := NewEngine(nil)
	for _, x := range []string{"p", "q", "r"} {
		if err := e.AddFact("item", atom(x)); err != nil {
			t.Fatal(err)
		}
	}
	agg := Aggregate{Result: v("N"), Op: AggCount, Value: v("X"),
		Body: []Literal{Lit("item", v("X"))}}
	if err := e.AddRule(NewRule(Lit("total", v("N")), agg)); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	d, err := e.Explain(res, "total", term.Int(3))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Conditions) != 1 || !strings.Contains(d.Conditions[0], "count{") {
		t.Errorf("aggregate should be a condition: %+v", d.Conditions)
	}
}

func TestExplainFalseFact(t *testing.T) {
	e := NewEngine(nil)
	if err := e.AddFact("p", atom("a")); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	if _, err := e.Explain(res, "p", atom("zz")); err == nil {
		t.Error("explaining a false fact must error")
	}
}

func TestExplainMutualRecursionWellFounded(t *testing.T) {
	// even/odd over a successor chain: every explanation must be
	// well-founded (no fact supports itself).
	e := NewEngine(nil)
	for i := 0; i < 6; i++ {
		if err := e.AddFact("succ", term.Int(int64(i)), term.Int(int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddRules(
		Fact("even", term.Int(0)),
		NewRule(Lit("odd", v("Y")), Lit("even", v("X")), Lit("succ", v("X"), v("Y"))),
		NewRule(Lit("even", v("Y")), Lit("odd", v("X")), Lit("succ", v("X"), v("Y"))),
	); err != nil {
		t.Fatal(err)
	}
	res := mustRun(t, e)
	d, err := e.Explain(res, "even", term.Int(6))
	if err != nil {
		t.Fatal(err)
	}
	// Check no atom appears twice on its own derivation path.
	var walk func(x *Derivation, path map[string]bool)
	walk = func(x *Derivation, path map[string]bool) {
		key := x.Pred + term.FormatTuple(x.Args)
		if path[key] {
			t.Fatalf("circular proof through %s", key)
		}
		path[key] = true
		for _, p := range x.Premises {
			walk(p, path)
		}
		delete(path, key)
	}
	walk(d, map[string]bool{})
}
