package datalog

// Tests for what a delta costs and for the machinery that keeps the
// cost down: a long chain of updates on one result (the shared-base
// relation layout is cloned, overlaid and folded hundreds of times),
// the proportionality of ApplyDelta's allocation to the delta rather
// than to the relations it touches, the cached evaluation plan, and the
// conservative fallback to a full run.

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"modelmed/internal/term"
)

// chainProgram is stratified, recursive and negated, over a node
// universe large enough that its relations outgrow foldMinOverlay.
func chainProgram() diffProgram {
	node := func(r *rand.Rand) term.Term { return term.Atom(fmt.Sprintf("c%d", r.Intn(24))) }
	edge := func(r *rand.Rand) []term.Term { return []term.Term{node(r), node(r)} }
	one := func(r *rand.Rand) []term.Term { return []term.Term{node(r)} }
	return diffProgram{
		name: "chain",
		rules: []Rule{
			NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("tc", v("X"), v("Z")), Lit("tc", v("X"), v("Y")), Lit("edge", v("Y"), v("Z"))),
			NewRule(Lit("reach", v("Y")), Lit("root", v("X")), Lit("tc", v("X"), v("Y"))),
			NewRule(Lit("cut", v("X"), v("Y")), Lit("edge", v("X"), v("Y")), Not("reach", v("X"))),
			NewRule(Lit("lonely", v("X")), Lit("node", v("X")), Not("reach", v("X")), Not("hub", v("X"))),
		},
		preds: []diffPred{
			{name: "edge", gen: edge},
			{name: "edge", gen: edge},
			{name: "root", gen: one},
			{name: "node", gen: one},
			{name: "hub", gen: one},
			{name: "tc", gen: edge}, // asserted and derivable
		},
	}
}

// TestDeltaLongChain applies 300 mixed deltas to one result, each on
// the result of the one before, and after every step holds the new
// result set-equal to a from-scratch run and the previous result
// set-equal to what it was before the step.
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
	folds := 0
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
		next, err := eng.ApplyDelta(res, d)
		if err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
		if next.Delta != nil && next.Delta.Full {
			t.Fatalf("step %d fell back to a full run", s)
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
