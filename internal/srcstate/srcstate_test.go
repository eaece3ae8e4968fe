package srcstate

import (
	"context"
	"slices"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
)

// program is the test engine's rule program: q copies p, and shared
// marks that the schema fact s(x) is in the EDB.
const program = `
	q(X) :- p(X).
	shared(yes) :- s(x).
`

func facts(src string) []datalog.Rule { return parser.MustParseRules(src) }

func state(t *testing.T, version uint64, factSrc, anchorSrc string) *State {
	t.Helper()
	st := NewState(version)
	for _, r := range facts(factSrc) {
		st.Facts.Insert(r.Head.Pred, r.Head.Args)
	}
	for _, r := range facts(anchorSrc) {
		st.Anchors.Insert(r.Head.Pred, r.Head.Args)
	}
	return st
}

func engine(t *testing.T) *datalog.Engine {
	t.Helper()
	e := datalog.NewEngine(nil)
	if err := e.AddRules(facts(program)...); err != nil {
		t.Fatal(err)
	}
	return e
}

// twoSources builds a base over sources a and b, which both hold the
// schema fact s(x).
func twoSources(t *testing.T) Base {
	t.Helper()
	states := map[string]*State{
		"b": state(t, 2, "p(b). s(x).", "anchor(b, ob, c)."),
		"a": state(t, 1, "p(a). s(x).", "anchor(a, oa, c)."),
	}
	b, err := Build(context.Background(), engine(t), states, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func holds(b Base, src string) bool {
	r := facts(src)[0].Head
	return b.Result().Holds(r.Pred, r.Args...)
}

func TestBuildSeedsEveryState(t *testing.T) {
	b := twoSources(t)
	if got := b.Names(); !slices.Equal(got, []string{"a", "b"}) || b.Len() != 2 {
		t.Fatalf("names %v, len %d", got, b.Len())
	}
	for _, f := range []string{"q(a).", "q(b).", "shared(yes).", "anchor(a, oa, c)."} {
		if !holds(b, f) {
			t.Errorf("%s missing after the build", f)
		}
	}
	if b.Engine() == nil || b.State("a").Version != 1 || b.State("c") != nil {
		t.Error("accessors disagree with the build")
	}

	// Adopting a store runs no fixpoint: the result is the store given.
	store := b.Result().Store.Clone()
	restored, err := Build(context.Background(), engine(t), b.States(), store)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Result().Store != store {
		t.Error("restore did not adopt the store")
	}
	// The adopted result moves like a built one.
	if restored, _, _, err = restored.Move(context.Background(), "a", 1, Change{Adds: facts("p(c).")}); err != nil {
		t.Fatal(err)
	}
	if !holds(restored, "q(c).") {
		t.Error("a move over an adopted store did not derive q(c)")
	}
}

func TestBuildFailureKeepsBase(t *testing.T) {
	b := twoSources(t)
	res, states := b.Result(), b.States()
	bad := map[string]*State{"a": {Facts: datalog.NewStore(), Anchors: datalog.NewStore(),
		Rules: facts("r(X) :- not p(X).")}}
	if _, err := Build(context.Background(), engine(t), bad, nil); err == nil {
		t.Fatal("unsafe source rule accepted")
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(cancelled, engine(t), b.States(), nil); err == nil {
		t.Fatal("cancelled build succeeded")
	}
	if b.Result() != res || b.Len() != len(states) || b.State("a") != states["a"] {
		t.Error("a failed build changed the base")
	}
}

func TestMoveKeepsSharedFact(t *testing.T) {
	b := twoSources(t)
	ctx := context.Background()
	withdraw := Change{Dels: facts("s(x).")}

	b, eff, stats, err := b.Move(ctx, "a", 7, withdraw)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Dels) != 1 || stats != nil {
		t.Errorf("withdrawing a shared fact: effective %+v, stats %+v", eff, stats)
	}
	if !holds(b, "shared(yes).") || b.State("a").Version != 7 {
		t.Error("s(x) left the EDB while b still holds it, or the version did not move")
	}

	// Withdrawing it again is not a change of a's.
	if b, eff, _, err = b.Move(ctx, "a", 7, withdraw); err != nil || len(eff.Dels) != 0 {
		t.Errorf("repeated withdrawal: %+v, %v", eff, err)
	}

	// The last holder withdraws it: now it goes.
	b, eff, stats, err = b.Move(ctx, "b", 2, withdraw)
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Dels) != 1 || stats == nil || holds(b, "shared(yes).") {
		t.Errorf("the last withdrawal left s(x): effective %+v, stats %+v", eff, stats)
	}

	// An addition a already holds is skipped; a new one and an anchor
	// move reach the engine.
	b, eff, _, err = b.Move(ctx, "a", 8, Change{
		Adds:       facts("p(a). p(d)."),
		AnchorAdds: facts("anchor(a, od, c)."),
		AnchorDels: facts("anchor(a, oa, c)."),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(eff.Adds) != 1 || len(eff.AnchorAdds) != 1 || len(eff.AnchorDels) != 1 {
		t.Errorf("effective %+v", eff)
	}
	if !holds(b, "q(d).") || !holds(b, "anchor(a, od, c).") || holds(b, "anchor(a, oa, c).") {
		t.Error("the move did not reach the result")
	}
	if !b.State("a").Anchors.Contains("anchor", facts("anchor(a, od, c).")[0].Head.Args) {
		t.Error("the anchor move did not reach a's state")
	}
}

// TestMoveSharedAcrossStores: a fact one source holds both as a fact
// and as an anchor stays while either store holds it.
func TestMoveSharedAcrossStores(t *testing.T) {
	b := twoSources(t)
	ctx := context.Background()
	dup := facts("anchor(a, oa, c).")
	b, _, _, err := b.Move(ctx, "a", 1, Change{Adds: dup})
	if err != nil {
		t.Fatal(err)
	}
	if b, _, _, err = b.Move(ctx, "a", 1, Change{AnchorDels: dup}); err != nil {
		t.Fatal(err)
	}
	if !holds(b, "anchor(a, oa, c).") {
		t.Error("the fact left the EDB while a's facts still hold it")
	}
	if b, _, _, err = b.Move(ctx, "a", 1, Change{Dels: dup}); err != nil {
		t.Fatal(err)
	}
	if holds(b, "anchor(a, oa, c).") {
		t.Error("the fact stayed after both stores withdrew it")
	}
}

func TestMoveFailureChangesNothing(t *testing.T) {
	b := twoSources(t)
	res := b.Result()
	before := b.State("a").Facts.Clone()
	beforeAnchors := b.State("a").Anchors.Clone()
	check := func(label string) {
		t.Helper()
		st := b.State("a")
		if b.Result() != res || !st.Facts.Equal(before) || !st.Anchors.Equal(beforeAnchors) || st.Version != 1 {
			t.Errorf("%s: a failed move changed the base", label)
		}
	}

	// A fact that is not ground fails the fold after p(z) folded.
	nonGround := Change{Adds: append(facts("p(z)."), datalog.Rule{Head: facts("q(X) :- p(X).")[0].Head}),
		AnchorDels: facts("anchor(a, oa, c).")}
	if _, _, _, err := b.Move(context.Background(), "a", 9, nonGround); err == nil {
		t.Fatal("non-ground addition accepted")
	}
	check("fold")

	// A patch that fails: the engine's context is done.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := b.Move(cancelled, "a", 9, Change{Adds: facts("p(z)."), Dels: facts("p(a).")}); err == nil {
		t.Fatal("cancelled patch succeeded")
	}
	check("patch")

	// The base still moves afterwards.
	next, _, _, err := b.Move(context.Background(), "a", 9, Change{Adds: facts("p(z).")})
	if err != nil || !holds(next, "q(z).") {
		t.Fatalf("move after failures: %v", err)
	}
}

// TestMoveWritesNothingOfItsBase: the Base a move starts from still
// reads as it did, so readers may hold it while the owner moves on.
func TestMoveWritesNothingOfItsBase(t *testing.T) {
	b := twoSources(t)
	res, st := b.Result(), b.State("a")
	facts0, anchors0 := st.Facts.Clone(), st.Anchors.Clone()
	next, _, _, err := b.Move(context.Background(), "a", 3, Change{
		Adds: facts("p(z)."), Dels: facts("p(a)."), AnchorDels: facts("anchor(a, oa, c)."),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !holds(next, "q(z).") || holds(next, "q(a).") || next.State("a").Version != 3 {
		t.Error("the next Base does not reflect the move")
	}
	if b.Result() != res || b.State("a") != st || st.Version != 1 || !st.Facts.Equal(facts0) || !st.Anchors.Equal(anchors0) {
		t.Error("the move wrote its Base's states")
	}
	if !holds(b, "q(a).") || holds(b, "q(z).") || !holds(b, "anchor(a, oa, c).") {
		t.Error("the move wrote its Base's result")
	}
}

func TestMoveRefusesWhatItDoesNotHold(t *testing.T) {
	b := twoSources(t)
	if _, _, _, err := b.Move(context.Background(), "c", 0, Change{}); err == nil {
		t.Error("move of a source without a state accepted")
	}
	b = b.DropResult()
	if b.Result() != nil || b.Engine() != nil || b.Len() != 2 {
		t.Error("DropResult did not keep exactly the states")
	}
	if _, _, _, err := b.Move(context.Background(), "a", 0, Change{}); err == nil {
		t.Error("move without a result accepted")
	}
	b = b.DropSource("a")
	if b.State("a") != nil || b.Len() != 1 {
		t.Error("DropSource kept the state")
	}
	var zero Base
	if zero.Len() != 0 || len(zero.Names()) != 0 || len(zero.States()) != 0 || zero.Result() != nil {
		t.Error("the zero Base holds something")
	}
}
