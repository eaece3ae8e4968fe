package datalog

import (
	"context"
	"errors"
	"maps"
	"sync"
	"testing"

	"modelmed/internal/term"
)

// extendBase is a closure program over a chain with a branch: node/1,
// edge/2, tc/2 (derived) and ghost/1 (derivable, never derived).
func extendBase(t *testing.T) (*Engine, []Rule) {
	t.Helper()
	e := closureEngine(t, nil, 6)
	if err := e.AddFact("edge", term.Int(2), term.Int(9)); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int64{0, 1, 2, 3, 4, 5, 6, 9} {
		if err := e.AddFact("node", term.Int(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddRule(NewRule(Lit("ghost", v("X")), Lit("edge", v("X"), v("X")))); err != nil {
		t.Fatal(err)
	}
	// Three strata of query-local rules: unreached pairs, the nodes that
	// miss another, and the one that reaches every other node (0).
	aux := []Rule{
		NewRule(Lit("$not1", v("X"), v("Y")), Lit("node", v("X")), Lit("node", v("Y")), Not("tc", v("X"), v("Y"))),
		NewRule(Lit("$not2", v("X")), Lit("$not1", v("X"), v("Y")), Lit(BuiltinNotEq, v("X"), v("Y"))),
		NewRule(Lit("hub", v("X")), Lit("node", v("X")), Not("$not2", v("X"))),
	}
	return e, aux
}

// relShape is what Extend must leave of one base relation.
type relShape struct {
	base   *segment
	shared bool
	over   *segment
	dead   int
	rows   int
	ids    int
}

func shapeOf(s *Store) (map[string]relShape, map[string]*Relation) {
	out := map[string]relShape{}
	for k, r := range s.rels {
		out[k] = relShape{r.base, r.shared, r.over, len(r.dead), r.base.n, len(r.base.ids)}
	}
	return out, maps.Clone(s.from)
}

// TestExtend: a negated query's layer is set-equal to the same rules
// run in the program from scratch, refuses heads of the base, and
// writes nothing of the base, also under concurrent extension.
func TestExtend(t *testing.T) {
	e, aux := extendBase(t)
	base := mustRun(t, e)
	shape, cow := shapeOf(base.Store)

	got, err := base.Extend(context.Background(), aux)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := extendBase(t)
	if err := full.AddRules(aux...); err != nil {
		t.Fatal(err)
	}
	if want := mustRun(t, full); !got.Store.Equal(want.Store) {
		t.Fatalf("layer holds %d facts, a scratch run %d", got.Store.Size(), want.Store.Size())
	}
	if got.Store.Count("hub/1") == 0 {
		t.Fatal("the layer derived no hub")
	}

	for _, head := range []Literal{Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y")), Lit("ghost", v("X"))} {
		r := NewRule(head, Lit("node", v("X")), Lit("node", v("Y")))
		if _, err := base.Extend(context.Background(), []Rule{r}); err == nil {
			t.Errorf("Extend accepted a rule for %s, a predicate of the base", head.Key())
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := base.Extend(context.Background(), aux)
			if err == nil && !res.Store.Equal(got.Store) {
				err = errors.New("a different layer")
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("concurrent Extend %d: %v", i, err)
		}
	}

	after, afterCow := shapeOf(base.Store)
	if !maps.Equal(shape, after) || !maps.Equal(cow, afterCow) {
		t.Fatal("Extend wrote the base store")
	}
	if base.Store.Rel("hub/1") != nil {
		t.Fatal("the layer's relation leaked into the base")
	}
}
