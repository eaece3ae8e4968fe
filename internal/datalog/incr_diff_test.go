package datalog

// Differential harness for incremental maintenance: for seeded random
// update sequences, the incrementally maintained result must be
// set-equal to a from-scratch evaluation over the mutated EDB — for
// recursive, negation-stratified, aggregate and well-founded programs,
// under GOMAXPROCS 1 and 4 (see setProcs). Together with the
// mediator-level twin (internal/mediator/incr_diff_test.go) this runs
// well over 100 seeded sequences.

import (
	"fmt"
	"math/rand"
	"testing"

	"modelmed/internal/term"
)

// diffPred describes one EDB predicate the harness mutates.
type diffPred struct {
	name string
	gen  func(r *rand.Rand) []term.Term
}

type diffProgram struct {
	name  string
	rules []Rule
	preds []diffPred
}

func nodeT(r *rand.Rand) term.Term { return term.Atom(fmt.Sprintf("n%d", r.Intn(7))) }

func edgeGen(r *rand.Rand) []term.Term { return []term.Term{nodeT(r), nodeT(r)} }
func nodeGen(r *rand.Rand) []term.Term { return []term.Term{nodeT(r)} }
func valGen(r *rand.Rand) []term.Term {
	return []term.Term{term.Atom(fmt.Sprintf("g%d", r.Intn(3))), term.Int(int64(r.Intn(5)))}
}

func diffPrograms() []diffProgram {
	closure := diffProgram{
		name: "closure",
		rules: []Rule{
			NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("tc", v("X"), v("Z")), Lit("tc", v("X"), v("Y")), Lit("edge", v("Y"), v("Z"))),
			NewRule(Lit("scc", v("X"), v("Y")), Lit("tc", v("X"), v("Y")), Lit("tc", v("Y"), v("X"))),
		},
		preds: []diffPred{
			{name: "edge", gen: edgeGen},
			// tc is also mutated extensionally, exercising facts that are
			// both EDB-asserted and derivable.
			{name: "tc", gen: edgeGen},
		},
	}
	negation := diffProgram{
		name: "negation",
		rules: []Rule{
			NewRule(Lit("reach", v("X")), Lit("root", v("X"))),
			NewRule(Lit("reach", v("Y")), Lit("reach", v("X")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("unreach", v("X")), Lit("node", v("X")), Not("reach", v("X"))),
			NewRule(Lit("cut", v("X"), v("Y")), Lit("edge", v("X"), v("Y")), Not("reach", v("X"))),
			NewRule(Lit("lonely", v("X")), Lit("unreach", v("X")), Not("hub", v("X"))),
		},
		preds: []diffPred{
			{name: "edge", gen: edgeGen},
			{name: "root", gen: nodeGen},
			{name: "node", gen: nodeGen},
			{name: "hub", gen: nodeGen},
		},
	}
	aggregate := diffProgram{
		name: "aggregate",
		rules: []Rule{
			NewRule(Lit("link", v("G"), v("V")), Lit("val", v("G"), v("V"))),
			NewRule(Lit("total", v("G"), v("S")), Aggregate{
				Result:  v("S"),
				Op:      AggSum,
				Value:   v("V"),
				GroupBy: []term.Term{v("G")},
				Body:    []Literal{Lit("link", v("G"), v("V"))},
			}),
			NewRule(Lit("groups", v("N")), Aggregate{
				Result:  v("N"),
				Op:      AggCount,
				Value:   v("G"),
				GroupBy: nil,
				Body:    []Literal{Lit("total", v("G"), v("S"))},
			}),
		},
		preds: []diffPred{{name: "val", gen: valGen}},
	}
	wfs := diffProgram{
		name: "wellfounded",
		rules: []Rule{
			NewRule(Lit("win", v("X")), Lit("move", v("X"), v("Y")), Not("win", v("Y"))),
		},
		preds: []diffPred{{name: "move", gen: edgeGen}},
	}
	return []diffProgram{closure, negation, aggregate, wfs}
}

// edbFact is one mirrored extensional fact.
type edbFact struct {
	pred string
	args []term.Term
}

// edbMirror tracks the reference EDB contents alongside the engine.
type edbMirror struct {
	list []edbFact
	pos  map[string]int
}

func newMirror() *edbMirror { return &edbMirror{pos: make(map[string]int)} }

func (m *edbMirror) key(pred string, args []term.Term) string {
	return PredKey(pred, len(args)) + "|" + tupleKey(args)
}

func (m *edbMirror) add(pred string, args []term.Term) {
	k := m.key(pred, args)
	if _, ok := m.pos[k]; ok {
		return
	}
	m.pos[k] = len(m.list)
	m.list = append(m.list, edbFact{pred: pred, args: args})
}

func (m *edbMirror) del(pred string, args []term.Term) {
	k := m.key(pred, args)
	i, ok := m.pos[k]
	if !ok {
		return
	}
	last := len(m.list) - 1
	if i != last {
		m.list[i] = m.list[last]
		m.pos[m.key(m.list[i].pred, m.list[i].args)] = i
	}
	m.list = m.list[:last]
	delete(m.pos, k)
}

// pick returns a random current fact, or false when empty.
func (m *edbMirror) pick(r *rand.Rand) (edbFact, bool) {
	if len(m.list) == 0 {
		return edbFact{}, false
	}
	return m.list[r.Intn(len(m.list))], true
}

func storesEqual(t *testing.T, label string, got, want *Store) {
	t.Helper()
	if got == nil || want == nil {
		if got != want {
			t.Fatalf("%s: one store is nil (got=%v want=%v)", label, got != nil, want != nil)
		}
		return
	}
	if got.Equal(want) {
		return
	}
	for _, k := range want.Keys() {
		wr := want.Rel(k)
		for _, row := range wr.Rows() {
			if !got.ContainsKey(k, row) {
				t.Fatalf("%s: missing fact %s%s", label, k, term.FormatTuple(row))
			}
		}
	}
	for _, k := range got.Keys() {
		gr := got.Rel(k)
		for _, row := range gr.Rows() {
			if !want.ContainsKey(k, row) {
				t.Fatalf("%s: extra fact %s%s", label, k, term.FormatTuple(row))
			}
		}
	}
	t.Fatalf("%s: stores differ", label)
}

func runDiffSequence(t *testing.T, p diffProgram, seed int64) {
	r := rand.New(rand.NewSource(seed))
	eng := NewEngine(nil)
	if err := eng.AddRules(p.rules...); err != nil {
		t.Fatal(err)
	}
	mirror := newMirror()
	for i, n := 0, 10+r.Intn(15); i < n; i++ {
		dp := p.preds[r.Intn(len(p.preds))]
		args := dp.gen(r)
		if err := eng.AddFact(dp.name, args...); err != nil {
			t.Fatal(err)
		}
		mirror.add(dp.name, args)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	steps := 4 + r.Intn(4)
	for s := 0; s < steps; s++ {
		d := NewDelta()
		for i, n := 0, 1+r.Intn(5); i < n; i++ {
			switch r.Intn(4) {
			case 0, 1: // insert (possibly a duplicate)
				dp := p.preds[r.Intn(len(p.preds))]
				args := dp.gen(r)
				if err := d.Add(dp.name, args...); err != nil {
					t.Fatal(err)
				}
				mirror.add(dp.name, args)
			case 2: // delete an existing fact
				if f, ok := mirror.pick(r); ok {
					if err := d.Del(f.pred, f.args...); err != nil {
						t.Fatal(err)
					}
					mirror.del(f.pred, f.args)
				}
			default: // delete a random (often absent) fact
				dp := p.preds[r.Intn(len(p.preds))]
				args := dp.gen(r)
				if err := d.Del(dp.name, args...); err != nil {
					t.Fatal(err)
				}
				mirror.del(dp.name, args)
			}
		}
		next, err := eng.ApplyDelta(res, d)
		if err != nil {
			t.Fatalf("step %d: ApplyDelta: %v", s, err)
		}
		ref := NewEngine(nil)
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
			t.Fatalf("step %d: scratch run: %v", s, err)
		}
		label := fmt.Sprintf("%s/seed=%d/step=%d", p.name, seed, s)
		storesEqual(t, label, next.Store, want.Store)
		if want.Undefined != nil || next.Undefined != nil {
			storesEqual(t, label+"/undefined", next.Undefined, want.Undefined)
		}
		res = next
	}
}

// TestIncrementalDifferential runs 160 seeded update sequences (4
// programs x 20 seeds x GOMAXPROCS 1/4) of 4-8 mixed insert/delete
// steps each against from-scratch evaluation.
func TestIncrementalDifferential(t *testing.T) {
	for _, p := range diffPrograms() {
		p := p
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, procs), func(t *testing.T) {
				setProcs(t, procs)
				for seed := int64(0); seed < 20; seed++ {
					runDiffSequence(t, p, seed)
				}
			})
		}
	}
}

// TestApplyDeltaResultIsolation checks the cache-consistency contract:
// the previous result is not mutated by an update.
func TestApplyDeltaResultIsolation(t *testing.T) {
	eng := NewEngine(nil)
	if err := eng.AddRules(
		NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
		NewRule(Lit("tc", v("X"), v("Z")), Lit("tc", v("X"), v("Y")), Lit("edge", v("Y"), v("Z"))),
	); err != nil {
		t.Fatal(err)
	}
	a, b, c := atom("a"), atom("b"), atom("c")
	for _, e := range [][2]term.Term{{a, b}, {b, c}} {
		if err := eng.AddFact("edge", e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDelta()
	if err := d.Del("edge", a, b); err != nil {
		t.Fatal(err)
	}
	next, err := eng.ApplyDelta(res, d)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds("tc", a, c) {
		t.Error("previous result lost tc(a,c) after delta")
	}
	if next.Holds("tc", a, c) || next.Holds("tc", a, b) {
		t.Error("new result kept derivations of the deleted edge")
	}
	if next.Delta == nil || next.Delta.Full {
		t.Errorf("expected incremental stats, got %+v", next.Delta)
	}
	if !next.Holds("tc", b, c) {
		t.Error("new result lost tc(b,c)")
	}
}

// TestResultUpdate goes through the Result-side entry point and checks
// the no-op fast path.
func TestResultUpdate(t *testing.T) {
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
	d := NewDelta()
	if err := d.Add("q", atom("a")); err != nil { // already present: no-op
		t.Fatal(err)
	}
	same, err := res.Update(d)
	if err != nil {
		t.Fatal(err)
	}
	if same != res {
		t.Error("no-op delta should return the previous result")
	}
	d2 := NewDelta()
	if err := d2.Add("q", atom("b")); err != nil {
		t.Fatal(err)
	}
	next, err := res.Update(d2)
	if err != nil {
		t.Fatal(err)
	}
	if !next.Holds("p", atom("b")) || !next.Holds("p", atom("a")) {
		t.Error("update missed derived facts")
	}
	if _, err := (&Result{}).Update(NewDelta()); err == nil {
		t.Error("detached result should refuse Update")
	}
}
