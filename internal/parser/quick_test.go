package parser

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"modelmed/internal/datalog"
	"modelmed/internal/term"
)

// genRandomRule builds a random safe rule.
func genRandomRule(r *rand.Rand) datalog.Rule {
	vs := []term.Term{term.Var("X"), term.Var("Y"), term.Var("Z")}
	consts := []term.Term{
		term.Atom("a"), term.Atom("b b"), term.Int(7), term.Int(-3),
		term.Float(2.5), term.Str("s"), term.Comp("f", term.Atom("a"), term.Var("X")),
	}
	anyTerm := func() term.Term {
		if r.Intn(2) == 0 {
			return vs[r.Intn(len(vs))]
		}
		return consts[r.Intn(len(consts))]
	}
	nBody := 1 + r.Intn(3)
	var body []datalog.BodyElem
	bound := map[string]bool{}
	for i := 0; i < nBody; i++ {
		args := []term.Term{anyTerm(), anyTerm()}
		for _, a := range args {
			for _, v := range a.Vars(nil) {
				bound[v] = true
			}
		}
		body = append(body, datalog.Lit(fmt.Sprintf("p%d", r.Intn(3)), args...))
	}
	// Optional negation over bound vars only.
	var negArgs []term.Term
	for v := range bound {
		negArgs = append(negArgs, term.Var(v))
	}
	if len(negArgs) > 0 && r.Intn(2) == 0 {
		body = append(body, datalog.Not("q", negArgs[0]))
	}
	// Head over bound vars and constants.
	headArgs := []term.Term{consts[r.Intn(len(consts)-1)]} // avoid the var-containing compound
	if len(negArgs) > 0 {
		headArgs = append(headArgs, negArgs[0])
	}
	return datalog.Rule{Head: datalog.Lit("h", headArgs...), Body: body}
}

// Property: String -> ParseRules -> String is a fixpoint (printing is
// canonical and re-readable) for random safe rules.
func TestQuickPrintParseFixpoint(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rule := genRandomRule(r)
		s1 := rule.String()
		rules, err := ParseRules(s1)
		if err != nil {
			t.Logf("parse of %q failed: %v", s1, err)
			return false
		}
		if len(rules) != 1 {
			return false
		}
		return rules[0].String() == s1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// genGroundTerm builds a random ground term nested at most depth deep.
func genGroundTerm(r *rand.Rand, depth int) term.Term {
	switch k := r.Intn(5); {
	case k == 0:
		return term.Atom([]string{"a", "b c", "Name'd", ""}[r.Intn(4)])
	case k == 1:
		return term.Int(int64(r.Intn(2000) - 1000))
	case k == 2:
		return term.Float([]float64{0, 1.5, -2.25, 1e6}[r.Intn(4)])
	case k == 3:
		return term.Str([]string{"x", "two words", "with \"quote\""}[r.Intn(3)])
	case depth > 0:
		n := 1 + r.Intn(3)
		args := make([]term.Term, n)
		for i := range args {
			args[i] = genGroundTerm(r, depth-1)
		}
		return term.Comp([]string{"f", "g h"}[r.Intn(2)], args...)
	default:
		return term.Atom("leaf")
	}
}

// Property: Append writes String's bytes, onto an empty slice and onto
// one that already holds text (a float must still get its ".0" when
// the bytes before it contain a '.'), for the random ground terms
// above and the terms of random rules.
func TestQuickTermAppend(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		terms := []term.Term{genGroundTerm(r, 3)}
		rule := genRandomRule(r)
		terms = append(terms, rule.Head.Args...)
		for _, e := range rule.Body {
			if l, ok := e.(datalog.Literal); ok {
				terms = append(terms, l.Args...)
			}
		}
		for _, tm := range terms {
			if string(tm.Append(nil)) != tm.String() {
				t.Logf("Append(nil) = %q, String = %q", tm.Append(nil), tm.String())
				return false
			}
			if got := string(tm.Append([]byte("1.5e"))); got != "1.5e"+tm.String() {
				t.Logf("Append onto text = %q, want %q", got, "1.5e"+tm.String())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: parsed terms render back to an equal term (ParseTerm ∘
// String = id) for random ground terms.
func TestQuickTermPrintParse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tm := genGroundTerm(r, 3)
		got, err := ParseTerm(tm.String())
		if err != nil {
			t.Logf("ParseTerm(%q): %v", tm.String(), err)
			return false
		}
		return got.Equal(tm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
