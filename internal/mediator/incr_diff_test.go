package mediator

// Differential harness for mediator-level incremental maintenance, the
// twin of internal/datalog/incr_diff_test.go: for seeded random source
// mutation sequences, the patched cache (SyncSources/RefreshSource/
// ApplySourceDelta over the engine's delta API) must be set-equal to a
// from-scratch mediator materializing the same live wrappers — under
// views with recursion (dm_down closure), stratified negation and
// aggregates, under GOMAXPROCS 1 and 4 (see setProcs).

import (
	"fmt"
	"math/rand"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// diffConcepts are domain-map concepts inside the cerebellum
// containment region, so anchor moves change the recursive dm_down
// joins and the negation/aggregate views built on them.
var diffConcepts = []string{"cerebellum", "purkinje_cell", "dendrite", "spine", "soma"}

// incrViews exercise recursion (dm_down is the closure of the has_a
// graph), stratified negation (bare) and aggregation (site_count,
// site_total) over the facts the deltas touch.
const incrViews = `
	covered(C) :- anchor(S, O, C).
	region(C) :- dm_down(has_a, cerebellum, C).
	bare(C) :- region(C), not covered(C).
	site_count(C, N) :- N = count{O[C]; anchor(S, O, C)}.
	site_total(C, T) :- T = sum{V[C] per O; anchor(S, O, C), src_val(S, O, value, V)}.
`

// newDiffWrappers builds two small synthetic sources over the shared
// concept set.
func newDiffWrappers(t *testing.T, seed int64) []*wrapper.InMemory {
	t.Helper()
	var ws []*wrapper.InMemory
	for i, name := range []string{"alpha", "beta"} {
		model := sources.MustSyntheticSource(name, seed+int64(i), 5+int(seed%3), diffConcepts)
		w, err := wrapper.NewInMemory(model)
		if err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	return ws
}

// newDiffMediator registers the wrappers and views on a fresh mediator.
func newDiffMediator(t *testing.T, ws []*wrapper.InMemory) *Mediator {
	t.Helper()
	m := New(sources.NeuroDM(), nil)
	for _, w := range ws {
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineView(incrViews); err != nil {
		t.Fatal(err)
	}
	return m
}

// mutateModel applies one random change to a synthetic source model.
func mutateModel(r *rand.Rand, name string, step int) func(m *gcm.Model) {
	return func(m *gcm.Model) {
		switch op := r.Intn(4); {
		case op == 0 || len(m.Objects) == 0: // add an object
			m.AddObject(gcm.Object{
				ID:    term.Atom(fmt.Sprintf("%s_x%d_%d", name, step, r.Intn(1000))),
				Class: "record",
				Values: map[string][]term.Term{
					"location": {term.Atom(diffConcepts[r.Intn(len(diffConcepts))])},
					"value":    {term.Float(float64(r.Intn(1000)) / 10)},
				},
			})
		case op == 1: // remove an object
			i := r.Intn(len(m.Objects))
			m.Objects[i] = m.Objects[len(m.Objects)-1]
			m.Objects = m.Objects[:len(m.Objects)-1]
		case op == 2: // change a value
			o := m.Objects[r.Intn(len(m.Objects))]
			o.Values["value"] = []term.Term{term.Float(float64(r.Intn(1000)) / 10)}
		default: // move an anchor
			o := m.Objects[r.Intn(len(m.Objects))]
			o.Values["location"] = []term.Term{term.Atom(diffConcepts[r.Intn(len(diffConcepts))])}
		}
	}
}

// checkAgainstScratch compares the incrementally maintained store with
// a from-scratch mediator over the same live wrappers.
func checkAgainstScratch(t *testing.T, label string, m *Mediator, ws []*wrapper.InMemory) {
	t.Helper()
	got, err := m.Materialize()
	if err != nil {
		t.Fatalf("%s: materialize: %v", label, err)
	}
	var iws []*wrapper.InMemory
	iws = append(iws, ws...)
	ref := newDiffMediator(t, iws)
	want, err := ref.Materialize()
	if err != nil {
		t.Fatalf("%s: scratch materialize: %v", label, err)
	}
	if got.Store.Equal(want.Store) {
		return
	}
	for _, k := range want.Store.Keys() {
		for _, row := range want.Store.Rel(k).Rows() {
			if !got.Store.ContainsKey(k, row) {
				t.Fatalf("%s: missing fact %s%s", label, k, term.FormatTuple(row))
			}
		}
	}
	for _, k := range got.Store.Keys() {
		for _, row := range got.Store.Rel(k).Rows() {
			if !want.Store.ContainsKey(k, row) {
				t.Fatalf("%s: extra fact %s%s", label, k, term.FormatTuple(row))
			}
		}
	}
	t.Fatalf("%s: stores differ", label)
}

func runMediatorDiffSequence(t *testing.T, seed int64) {
	r := rand.New(rand.NewSource(seed))
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 3; step++ {
		for i, n := 0, 1+r.Intn(3); i < n; i++ {
			w := ws[r.Intn(len(ws))]
			w.Mutate(mutateModel(r, w.Name(), step))
		}
		reps, err := m.SyncSources()
		if err != nil {
			t.Fatalf("seed=%d step=%d: sync: %v", seed, step, err)
		}
		if len(reps) == 0 {
			t.Fatalf("seed=%d step=%d: sync saw no changed sources", seed, step)
		}
		for _, rep := range reps {
			if rep.Full {
				t.Errorf("seed=%d step=%d: %s fell back to full rebuild", seed, step, rep.Source)
			}
		}
		checkAgainstScratch(t, fmt.Sprintf("seed=%d/step=%d", seed, step), m, ws)
	}
}

// TestMediatorIncrementalDifferential runs 20 seeded mutation
// sequences (10 seeds x GOMAXPROCS 1/4) of 3 sync steps each against
// from-scratch materialization.
func TestMediatorIncrementalDifferential(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			for seed := int64(0); seed < 10; seed++ {
				runMediatorDiffSequence(t, seed)
			}
		})
	}
}

// TestApplySourceDelta pushes fact changes directly and checks that
// derived views update, the patch round-trips, and the previous cached
// result stays untouched.
func TestApplySourceDelta(t *testing.T) {
	ws := newDiffWrappers(t, 7)
	m := newDiffMediator(t, ws)
	before, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	obj := term.Atom("alpha_pushed")
	adds := []datalog.Rule{
		datalog.Fact(PredSrcObj, term.Atom("alpha"), obj, term.Atom("record")),
		datalog.Fact(PredSrcVal, term.Atom("alpha"), obj, term.Atom("value"), term.Float(5)),
	}
	rep, err := m.ApplySourceDelta("alpha", adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Full || rep.FactsAdded != 2 {
		t.Fatalf("report = %+v", rep)
	}
	after, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Derived consequence: the bridge rule lifts src_obj to instance.
	if !after.Holds("instance", obj, term.Atom("record")) {
		t.Error("pushed object should classify through the bridge rules")
	}
	if before.Holds("instance", obj, term.Atom("record")) {
		t.Error("previous cached result must not see the pushed object")
	}
	// Revert: the store must round-trip to the original model.
	if _, err := m.ApplySourceDelta("alpha", nil, adds); err != nil {
		t.Fatal(err)
	}
	reverted, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !reverted.Store.Equal(before.Store) {
		t.Error("add+revert should restore the original materialization")
	}
	// Unknown sources are rejected; an invalidated cache rebuilds fully.
	if _, err := m.ApplySourceDelta("nope", adds, nil); err == nil {
		t.Error("unknown source should be rejected")
	}
	m.Invalidate()
	rep, err = m.ApplySourceDelta("alpha", adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Error("delta against an invalidated cache should rebuild fully")
	}
}

// TestSharedFactRefcount: a global schema fact contributed by two
// sources must survive one source withdrawing it.
func TestSharedFactRefcount(t *testing.T) {
	ws := newDiffWrappers(t, 11)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	// Both synthetic sources declare the same "record" class, so its
	// schema facts are shared. Find one from the alpha snapshot.
	m.mu.Lock()
	snap := m.snaps["alpha"]
	var shared datalog.Rule
	found := false
	snap.facts.Each(func(key string, arity int, row []term.Term) {
		if found {
			return
		}
		if m.sharedElsewhere("alpha", key, row) {
			shared = datalog.Fact(datalog.PredName(key), row...)
			found = true
		}
	})
	m.mu.Unlock()
	if !found {
		t.Fatal("expected a schema fact shared between alpha and beta")
	}
	if _, err := m.ApplySourceDelta("alpha", nil, []datalog.Rule{shared}); err != nil {
		t.Fatal(err)
	}
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds(shared.Head.Pred, shared.Head.Args...) {
		t.Errorf("%s should survive: beta still contributes it", shared)
	}
	// Withdraw beta's copy too: now it must go.
	if _, err := m.ApplySourceDelta("beta", nil, []datalog.Rule{shared}); err != nil {
		t.Fatal(err)
	}
	res, err = m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds(shared.Head.Pred, shared.Head.Args...) {
		t.Errorf("%s should be gone after both sources withdrew it", shared)
	}
}

// TestRefreshSourceFullRebuildOnNewConcept: an anchor move to a
// concept the domain map does not know grows the map and must fall
// back to a full rebuild — and still match a scratch mediator.
func TestRefreshSourceFullRebuildOnNewConcept(t *testing.T) {
	ws := newDiffWrappers(t, 13)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	ws[0].Mutate(func(mod *gcm.Model) {
		o := mod.Objects[0]
		o.Values["location"] = []term.Term{term.Atom("brand_new_region")}
	})
	rep, err := m.RefreshSource("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Full {
		t.Errorf("anchor at unknown concept should force a full rebuild: %+v", rep)
	}
	if !m.DomainMap().HasConcept("brand_new_region") {
		t.Error("lenient mediator should have added the new concept")
	}
	checkAgainstScratch(t, "new-concept", m, ws)
}

// TestSyncSourcesNoChange: with no mutations, sync refreshes nothing
// and the cache pointer is stable.
func TestSyncSourcesNoChange(t *testing.T) {
	ws := newDiffWrappers(t, 17)
	m := newDiffMediator(t, ws)
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	reps, err := m.SyncSources()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 0 {
		t.Errorf("unchanged sources refreshed: %v", reps)
	}
	res2, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if res2 != res {
		t.Error("cache should be byte-stable across a no-op sync")
	}
}
