package datalog

import (
	"math/rand"
	"testing"
	"testing/quick"

	"modelmed/internal/term"
)

// genTuple builds a random ground tuple of the given arity.
func genTuple(r *rand.Rand, arity int) []term.Term {
	out := make([]term.Term, arity)
	for i := range out {
		switch r.Intn(4) {
		case 0:
			out[i] = term.Atom(string(rune('a' + r.Intn(6))))
		case 1:
			out[i] = term.Int(int64(r.Intn(8)))
		case 2:
			out[i] = term.Str(string(rune('x' + r.Intn(3))))
		default:
			out[i] = term.Comp("f", term.Atom(string(rune('a'+r.Intn(3)))), term.Int(int64(r.Intn(4))))
		}
	}
	return out
}

// Property: a relation behaves as a set — Contains iff inserted, Insert
// reports newness exactly once, Len equals the number of distinct
// tuples.
func TestQuickRelationSetSemantics(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation(2)
		ref := map[string]bool{}
		for i := 0; i < int(n); i++ {
			tp := genTuple(r, 2)
			k := tupleKey(tp)
			isNew := !ref[k]
			if rel.Insert(tp) != isNew {
				return false
			}
			ref[k] = true
			if !rel.Contains(tp) {
				return false
			}
		}
		return rel.Len() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Select(pos, v) returns exactly the rows whose pos-th column
// equals v.
func TestQuickRelationSelect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		rel := NewRelation(3)
		for i := 0; i < 40; i++ {
			rel.Insert(genTuple(r, 3))
		}
		probe := genTuple(r, 1)[0]
		for pos := 0; pos < 3; pos++ {
			got := map[string]bool{}
			for _, row := range rel.Select(pos, probe) {
				got[tupleKey(row)] = true
				if !row[pos].Equal(probe) || !rel.Contains(row) {
					return false
				}
			}
			want := 0
			for _, row := range rel.Rows() {
				if row[pos].Equal(probe) {
					want++
					if !got[tupleKey(row)] {
						return false
					}
				}
			}
			if len(got) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: MergeInto is idempotent and Clone is independent.
func TestQuickStoreMergeClone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := NewStore(), NewStore()
		for i := 0; i < 30; i++ {
			a.Insert("p", genTuple(r, 2))
			b.Insert("p", genTuple(r, 2))
		}
		c := a.Clone()
		added1 := b.MergeInto(c)
		added2 := b.MergeInto(c)
		if added2 != 0 {
			return false // second merge must be a no-op
		}
		_ = added1
		// Clone independence: c grew, a did not.
		return a.Count("p/2") <= c.Count("p/2")
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: computeAggregate invariants — count equals the number of
// contributions; min <= avg <= max for numeric sets; sum of all-int
// values is an int.
func TestQuickAggregateInvariants(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			n = 1
		}
		r := rand.New(rand.NewSource(seed))
		vals := make([]term.Term, 0, n)
		seen := map[string]bool{}
		for i := 0; i < int(n); i++ {
			v := term.Int(int64(r.Intn(50) - 25))
			if seen[v.Key()] {
				continue
			}
			seen[v.Key()] = true
			vals = append(vals, v)
		}
		cnt, err := computeAggregate(AggCount, vals)
		if err != nil || cnt.IntVal() != int64(len(vals)) {
			return false
		}
		mn, err1 := computeAggregate(AggMin, vals)
		mx, err2 := computeAggregate(AggMax, vals)
		av, err3 := computeAggregate(AggAvg, vals)
		sm, err4 := computeAggregate(AggSum, vals)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		mnf, _ := mn.Numeric()
		mxf, _ := mx.Numeric()
		avf, _ := av.Numeric()
		if mnf > avf || avf > mxf {
			return false
		}
		return sm.Kind() == term.KindInt
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: every fact of the model of a random positive chain program
// is explainable, and every explanation bottoms out in extensional
// facts.
func TestQuickExplainTotalOnPositivePrograms(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := NewEngine(nil)
		for i := 0; i < 12; i++ {
			a := term.Atom(string(rune('a' + r.Intn(5))))
			b := term.Atom(string(rune('a' + r.Intn(5))))
			if err := e.AddFact("edge", a, b); err != nil {
				return false
			}
		}
		if err := e.AddRules(
			NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("tc", v("X"), v("Y")), Lit("tc", v("X"), v("Z")), Lit("edge", v("Z"), v("Y"))),
		); err != nil {
			return false
		}
		res, err := e.Run()
		if err != nil {
			return false
		}
		rel := res.Store.Rel("tc/2")
		if rel == nil {
			return true
		}
		for _, row := range rel.Rows() {
			d, err := e.Explain(res, "tc", row...)
			if err != nil || d == nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
