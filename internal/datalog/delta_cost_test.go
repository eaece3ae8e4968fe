package datalog

// Tests for what a delta costs and for the machinery that keeps the
// cost down: a long chain of updates on one result (the shared-base
// relation layout is cloned, overlaid and folded hundreds of times),
// the proportionality of ApplyDelta's allocation to the delta rather
// than to the relations it touches, the cached evaluation plan, and the
// conservative fallback to a full run.

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"modelmed/internal/term"
)

// chainProgram is stratified, recursive, negated and aggregated, over
// a node universe large enough that its relations outgrow
// foldMinOverlay. lo and hi hold each group's least and greatest val,
// which runDeltaLongChain deletes now and then.
func chainProgram() diffProgram {
	node := func(r *rand.Rand) term.Term { return term.Atom(fmt.Sprintf("c%d", r.Intn(24))) }
	edge := func(r *rand.Rand) []term.Term { return []term.Term{node(r), node(r)} }
	one := func(r *rand.Rand) []term.Term { return []term.Term{node(r)} }
	val := func(r *rand.Rand) []term.Term {
		return []term.Term{term.Atom(fmt.Sprintf("k%d", r.Intn(4))), term.Float(float64(r.Intn(200)) / 8)}
	}
	g := []term.Term{v("G")}
	inVal := []Literal{Lit("val", v("G"), v("V"))}
	return diffProgram{
		name: "chain",
		rules: []Rule{
			NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("tc", v("X"), v("Z")), Lit("tc", v("X"), v("Y")), Lit("edge", v("Y"), v("Z"))),
			NewRule(Lit("reach", v("Y")), Lit("root", v("X")), Lit("tc", v("X"), v("Y"))),
			NewRule(Lit("cut", v("X"), v("Y")), Lit("edge", v("X"), v("Y")), Not("reach", v("X"))),
			NewRule(Lit("lonely", v("X")), Lit("node", v("X")), Not("reach", v("X")), Not("hub", v("X"))),
			NewRule(Lit("lo", v("G"), v("M")), Aggregate{Result: v("M"), Op: AggMin, Value: v("V"), GroupBy: g, Body: inVal}),
			NewRule(Lit("hi", v("G"), v("M")), Aggregate{Result: v("M"), Op: AggMax, Value: v("V"), GroupBy: g, Body: inVal}),
			NewRule(Lit("mean", v("G"), v("A"), v("S")),
				Aggregate{Result: v("A"), Op: AggAvg, Value: v("V"), GroupBy: g, Body: inVal},
				Aggregate{Result: v("S"), Op: AggSum, Value: v("V2"), GroupBy: g, Body: []Literal{Lit("val", v("G"), v("V2"))}}),
		},
		preds: []diffPred{
			{name: "edge", gen: edge},
			{name: "edge", gen: edge},
			{name: "root", gen: one},
			{name: "node", gen: one},
			{name: "hub", gen: one},
			{name: "tc", gen: edge}, // asserted and derivable
			{name: "val", gen: val},
			{name: "val", gen: val},
		},
	}
}

// TestDeltaLongChain applies 300 mixed deltas to one result, each on
// the result of the one before, and after every step holds the new
// result set-equal to a from-scratch run and the previous result
// set-equal to what it was before the step. Every fourth delta also
// deletes a group's current min or max (when the groups are not all
// empty); the float sums and averages must come out in the bits a
// from-scratch run gives, and no stratum may fall back to a recompute.
func TestDeltaLongChain(t *testing.T) {
	p := chainProgram()
	for _, procs := range []int{1, 4} {
		for _, interpret := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d/interpret=%v", procs, interpret), func(t *testing.T) {
				setProcs(t, procs)
				runDeltaLongChain(t, p, Options{Interpret: interpret})
			})
		}
	}
}

// runDeltaLongChain is one configuration of TestDeltaLongChain.
func runDeltaLongChain(t *testing.T, p diffProgram, cfg Options) {
	const steps = 300
	r := rand.New(rand.NewSource(17))
	eng := NewEngine(&cfg)
	if err := eng.AddRules(p.rules...); err != nil {
		t.Fatal(err)
	}
	mirror := newMirror()
	for i := 0; i < 60; i++ {
		dp := p.preds[r.Intn(len(p.preds))]
		args := dp.gen(r)
		if err := eng.AddFact(dp.name, args...); err != nil {
			t.Fatal(err)
		}
		mirror.add(dp.name, args)
	}
	scratch := func() *Store {
		ref := NewEngine(&cfg)
		if err := ref.AddRules(p.rules...); err != nil {
			t.Fatal(err)
		}
		for _, f := range mirror.list {
			if err := ref.AddFact(f.pred, f.args...); err != nil {
				t.Fatal(err)
			}
		}
		want, err := ref.Run()
		if err != nil {
			t.Fatal(err)
		}
		return want.Store
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantPrev := scratch()
	folds, extremes := 0, 0
	for s := 0; s < steps; s++ {
		d := NewDelta()
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			if f, ok := mirror.pick(r); ok && r.Intn(2) == 0 {
				if err := d.Del(f.pred, f.args...); err != nil {
					t.Fatal(err)
				}
				mirror.del(f.pred, f.args)
				continue
			}
			dp := p.preds[r.Intn(len(p.preds))]
			args := dp.gen(r)
			if err := d.Add(dp.name, args...); err != nil {
				t.Fatal(err)
			}
			mirror.add(dp.name, args)
		}
		if s%4 == 0 {
			if ext := res.Store.Rel([]string{"lo/2", "hi/2"}[s/4%2]); ext != nil && ext.Len() > 0 {
				row := ext.Rows()[r.Intn(ext.Len())]
				if err := d.Del("val", row...); err != nil {
					t.Fatal(err)
				}
				mirror.del("val", row)
				extremes++
			}
		}
		next, err := eng.ApplyDelta(res, d)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if next.Delta != nil && (next.Delta.Full || next.Delta.RecomputedStrata > 0) {
			t.Fatalf("step %d fell back: %+v", s, next.Delta)
		}
		want := scratch()
		storesEqual(t, fmt.Sprintf("step %d", s), next.Store, want)
		storesEqual(t, fmt.Sprintf("step %d: previous result", s), res.Store, wantPrev)
		// A relation the step wrote is a clone of the previous
		// one; it owns its base again only if it folded.
		for _, k := range next.Store.Keys() {
			if nr, pr := next.Store.Rel(k), res.Store.Rel(k); pr != nil && nr != pr && !nr.shared {
				folds++
			}
		}
		res, wantPrev = next, want
	}
	if folds < 3 {
		t.Errorf("the chain folded an overlay %d times, want several", folds)
	}
	if extremes < 40 {
		t.Errorf("the chain deleted a current min or max %d times in %d tries, want most", extremes, steps/4)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestDeltaCostProportional holds ApplyDelta's allocation to the size
// of the delta: the same five-fact delta, added by one call and deleted
// by the next, against a stratified recursive program over comps
// disjoint components must not cost more than twice as much at ten
// times the components. (Copying every touched relation made it ten
// times as much.) Not parallel: it reads the process's allocation
// counter.
func TestDeltaCostProportional(t *testing.T) {
	perDelta := func(comps int) uint64 {
		eng := NewEngine(nil)
		if err := eng.AddRules(
			NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("tc", v("X"), v("Z")), Lit("tc", v("X"), v("Y")), Lit("edge", v("Y"), v("Z"))),
			NewRule(Lit("inner", v("X")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("leaf", v("Y")), Lit("edge", v("X"), v("Y")), Not("inner", v("Y"))),
		); err != nil {
			t.Fatal(err)
		}
		chain := func(name string) [][]term.Term {
			var edges [][]term.Term
			for i := 0; i < 5; i++ {
				edges = append(edges, []term.Term{
					term.Atom(fmt.Sprintf("%s_%d", name, i)), term.Atom(fmt.Sprintf("%s_%d", name, i+1))})
			}
			return edges
		}
		for c := 0; c < comps; c++ {
			for _, e := range chain(fmt.Sprintf("k%d", c)) {
				if err := eng.AddFact("edge", e...); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		fresh := chain("fresh")
		add := true
		return bytesPerRun(20, func() {
			d := NewDelta()
			for _, e := range fresh {
				var err error
				if add {
					err = d.Add("edge", e...)
				} else {
					err = d.Del("edge", e...)
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			add = !add
			next, err := eng.ApplyDelta(res, d)
			if err != nil || next.Delta.Full {
				t.Fatal(err, next.Delta)
			}
			res = next
		})
	}
	small, large := perDelta(100), perDelta(1000)
	t.Logf("bytes per ApplyDelta: %d at 100 components, %d at 1000", small, large)
	if large > 2*small {
		t.Errorf("ApplyDelta allocates %d bytes at 10x the relation size against %d at 1x: more than twice", large, small)
	}
}

// TestAggregateDeltaCostProportional holds a delta under an aggregate
// to the groups it touches: under a grouped sum and count in one rule,
// the shape of the paper's Example 4 view, overwriting one value of
// one group of five, and back, must not allocate more than twice as
// much at ten times the groups. (Recomputing the aggregate's stratum
// made it ten times as much.) Not parallel: it reads the process's
// allocation counter.
func TestAggregateDeltaCostProportional(t *testing.T) {
	perDelta := func(groups int) uint64 {
		eng := NewEngine(nil)
		if err := eng.AddRule(NewRule(Lit("total", v("G"), v("S"), v("N")),
			Aggregate{Result: v("S"), Op: AggSum, Value: v("V"), GroupBy: []term.Term{v("G")}, Key: []term.Term{v("O")},
				Body: []Literal{Lit("val", v("G"), v("O"), v("V"))}},
			Aggregate{Result: v("N"), Op: AggCount, Value: v("O2"), GroupBy: []term.Term{v("G")},
				Body: []Literal{Lit("val", v("G"), v("O2"), v("V2"))}})); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < groups; g++ {
			for o := 0; o < 5; o++ {
				if err := eng.AddFact("val", term.Atom(fmt.Sprintf("g%d", g)), term.Atom(fmt.Sprintf("o%d_%d", g, o)),
					term.Float(float64(g+o)/4)); err != nil {
					t.Fatal(err)
				}
			}
		}
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		g, o := term.Atom("g0"), term.Atom("o0_0")
		vals := []term.Term{term.Float(0), term.Float(1000.5)}
		i := 0
		return bytesPerRun(20, func() {
			d := NewDelta()
			if err := d.Del("val", g, o, vals[i%2]); err != nil {
				t.Fatal(err)
			}
			if err := d.Add("val", g, o, vals[(i+1)%2]); err != nil {
				t.Fatal(err)
			}
			i++
			next, err := eng.ApplyDelta(res, d)
			if err != nil || next.Delta.Full || next.Delta.RecomputedStrata != 0 || next.Delta.GroupsRefolded != 1 {
				t.Fatal(err, next.Delta)
			}
			res = next
		})
	}
	small, large := perDelta(200), perDelta(2000)
	t.Logf("bytes per one-value overwrite: %d at 200 groups, %d at 2000", small, large)
	if large > 2*small {
		t.Errorf("an overwrite under an aggregate allocates %d bytes at 10x the groups against %d at 1x: more than twice", large, small)
	}
}

// TestQueryCostFollowsAnswer holds a query's allocation to its answer:
// projecting src_obj(S, O, C) onto S answers the 4 sources whatever
// the objects number, so ten times the objects must not cost more than
// twice as many bytes per query. (A row and a key string per solution
// made it ten times as much.) Not parallel: it reads the process's
// allocation counter.
func TestQueryCostFollowsAnswer(t *testing.T) {
	body := []BodyElem{Lit("src_obj", v("S"), v("O"), v("C"))}
	perQuery := func(objs int) uint64 {
		res := srcObjResult(t, objs)
		return bytesPerRun(20, func() {
			rows, err := res.Query(body, []string{"S"})
			if err != nil || len(rows) != 4 {
				t.Fatal(err, rows)
			}
		})
	}
	small, large := perQuery(500), perQuery(5000)
	t.Logf("bytes per query: %d at 2000 solutions, %d at 20000", small, large)
	if large > 2*small {
		t.Errorf("a 4-row query allocates %d bytes at 10x the solutions against %d at 1x: more than twice", large, small)
	}
}

// srcObjResult is the result of src_obj(src<s>, obj<s>_<o>,
// class<o mod 7>) for four sources of objs objects each.
func srcObjResult(t *testing.T, objs int) *Result {
	t.Helper()
	eng := NewEngine(nil)
	for s := 0; s < 4; s++ {
		for o := 0; o < objs; o++ {
			if err := eng.AddFact("src_obj", term.Atom(fmt.Sprintf("src%d", s)),
				term.Atom(fmt.Sprintf("obj%d_%d", s, o)), term.Atom(fmt.Sprintf("class%d", o%7))); err != nil {
				t.Fatal(err)
			}
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestQueryBytesPerRow holds a compiled query's answer to the size of
// its rows, not of their terms: a 2-column query returning 5,000 rows
// allocates at most 48 bytes a row, its 16 bytes of cells and its
// 24-byte row header. Its cells point at the interned terms (8 bytes a
// cell); a copy of each 80-byte term, as rows of term.Term were, took
// 232. The answer set's arena, slot table and sort order are scratch
// the next query reuses; allocated afresh each time they took 87. Under
// the race detector, which drops a share of what a sync.Pool is given,
// the bound is the 110 bytes a row held before the scratch was pooled.
// Not parallel: it reads the process's allocation counter.
func TestQueryBytesPerRow(t *testing.T) {
	bound := uint64(48)
	if raceEnabled {
		bound = 110
	}
	const rows = 5000
	res := srcObjResult(t, rows/4)
	body := []BodyElem{Lit("src_obj", v("S"), v("O"), v("C"))}
	perRow := bytesPerRun(10, func() {
		got, st, err := res.QueryWithStats(context.Background(), body, []string{"O", "C"})
		if err != nil || len(got) != rows || !st.Compiled {
			t.Fatal(err, len(got), st)
		}
	}) / rows
	t.Logf("%d bytes per row", perRow)
	if perRow > bound {
		t.Errorf("a %d-row answer allocates %d bytes per row, want at most %d", rows, perRow, bound)
	}
}

// TestDeltaFallsBackOnNonStratified: DRed is only sound under
// stratified negation, so a program that is not must take the full
// well-founded run, say so, and still produce the right model.
func TestDeltaFallsBackOnNonStratified(t *testing.T) {
	eng := NewEngine(nil)
	if err := eng.AddRule(NewRule(Lit("win", v("X")), Lit("move", v("X"), v("Y")), Not("win", v("Y")))); err != nil {
		t.Fatal(err)
	}
	a, b, c := atom("a"), atom("b"), atom("c")
	if err := eng.AddFact("move", a, b); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Stratified || !res.Holds("win", a) {
		t.Fatalf("base run: stratified=%v win(a)=%v", res.Stratified, res.Holds("win", a))
	}
	d := NewDelta()
	if err := d.Add("move", b, c); err != nil {
		t.Fatal(err)
	}
	next, err := eng.ApplyDelta(res, d)
	if err != nil {
		t.Fatal(err)
	}
	if next.Delta == nil || !next.Delta.Full || next.Delta.AddsApplied != 1 {
		t.Errorf("stats %+v, want a full run with one applied add", next.Delta)
	}
	// b now moves to the dead end c, so b wins and a, whose only move
	// reaches a winner, no longer does.
	if !next.Holds("win", b) || next.Holds("win", a) || next.Holds("win", c) {
		t.Errorf("post-delta model wrong: win(a)=%v win(b)=%v win(c)=%v",
			next.Holds("win", a), next.Holds("win", b), next.Holds("win", c))
	}
}

// TestAddRuleDropsCachedPlan: a delta leaves the engine holding a plan
// prepared for its rule set; a rule added afterwards must be part of
// the next run and of the deltas after it.
func TestAddRuleDropsCachedPlan(t *testing.T) {
	eng := NewEngine(nil)
	if err := eng.AddRule(NewRule(Lit("p", v("X")), Lit("q", v("X")))); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddFact("q", atom("a")); err != nil {
		t.Fatal(err)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	add := func(res *Result, x string) *Result {
		t.Helper()
		d := NewDelta()
		if err := d.Add("q", atom(x)); err != nil {
			t.Fatal(err)
		}
		next, err := eng.ApplyDelta(res, d)
		if err != nil || next.Delta.Full {
			t.Fatal(err, next.Delta)
		}
		return next
	}
	res = add(res, "b")
	if !res.Holds("p", atom("b")) {
		t.Fatal("delta before AddRule missed p(b)")
	}
	if err := eng.AddRule(NewRule(Lit("r", v("X")), Lit("p", v("X")), Not("s", v("X")))); err != nil {
		t.Fatal(err)
	}
	if res, err = eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !res.Holds("r", atom("a")) || !res.Holds("r", atom("b")) {
		t.Fatal("run after AddRule ignored the new rule")
	}
	if res = add(res, "c"); !res.Holds("r", atom("c")) {
		t.Error("delta after AddRule ran on the plan of the old rule set: r(c) missing")
	}
}
