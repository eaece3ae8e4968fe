package datalog

// Evaluation runs on the calling goroutine, so neither a result nor its
// Rounds/Firings may depend on how many CPUs the host grants the
// runtime. The TestParallelEquivalence* tests run each program with
// default options under GOMAXPROCS 1 and 2 and hold the two runs
// identical. (While Options.Workers defaulted to GOMAXPROCS, independent
// stratum groups counted their rounds separately, so Rounds — and the
// benchmark's datalog.cold_rounds — differed between a 1-CPU and a
// 2-CPU host.) The differential suites run under setProcs too; their
// "workers=N" subtest labels predate the removal of Options.Workers.

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"modelmed/internal/term"
)

// setProcs sets runtime.GOMAXPROCS to n until t ends. The setting is
// process-wide, so a test that calls it must not run in parallel.
func setProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// dumpSorted renders a store as a deterministic text dump: relation keys
// in sorted order, tuples in SortedRows order. Two stores with equal
// dumps contain exactly the same facts regardless of insertion order.
func dumpSorted(s *Store) string {
	if s == nil {
		return "<nil>"
	}
	var b strings.Builder
	for _, k := range s.Keys() {
		r := s.Rel(k)
		for _, row := range r.SortedRows() {
			b.WriteString(k)
			b.WriteByte('\t')
			for _, t := range row {
				b.WriteString(t.Key())
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// runWithProcs builds a fresh engine via build and evaluates it under
// GOMAXPROCS n.
func runWithProcs(t *testing.T, build func() *Engine, n int) *Result {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	res, err := build().Run()
	if err != nil {
		t.Fatalf("Run (GOMAXPROCS=%d): %v", n, err)
	}
	return res
}

// assertEquivalent runs the same program under GOMAXPROCS 1 and 2 and
// checks that the derived facts, the undefined set, the stratification
// verdict and the Rounds/Firings counters agree.
func assertEquivalent(t *testing.T, build func() *Engine) (*Result, *Result) {
	t.Helper()
	one := runWithProcs(t, build, 1)
	two := runWithProcs(t, build, 2)
	if one.Stratified != two.Stratified {
		t.Fatalf("Stratified: procs1=%v procs2=%v", one.Stratified, two.Stratified)
	}
	if got, want := dumpSorted(two.Store), dumpSorted(one.Store); got != want {
		t.Errorf("store mismatch\nprocs1:\n%s\nprocs2:\n%s", want, got)
	}
	if got, want := dumpSorted(two.Undefined), dumpSorted(one.Undefined); got != want {
		t.Errorf("undefined mismatch\nprocs1:\n%s\nprocs2:\n%s", want, got)
	}
	if one.Rounds != two.Rounds || one.Firings != two.Firings {
		t.Errorf("Rounds/Firings: procs1=%d/%d procs2=%d/%d", one.Rounds, one.Firings, two.Rounds, two.Firings)
	}
	return one, two
}

func TestParallelEquivalenceTransitiveClosure(t *testing.T) {
	build := func() *Engine {
		e := NewEngine(nil)
		// A chain, a cycle, and a branching fan: enough shape to need
		// several semi-naive rounds with two delta variants per round.
		edges := [][2]string{
			{"a", "b"}, {"b", "c"}, {"c", "d"}, {"d", "e"},
			{"e", "a"}, {"c", "f"}, {"f", "g"}, {"g", "h"},
			{"h", "f"}, {"b", "g"},
		}
		for _, p := range edges {
			if err := e.AddFact("edge", atom(p[0]), atom(p[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddRules(
			NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("tc", v("X"), v("Y")), Lit("tc", v("X"), v("Z")), Lit("tc", v("Z"), v("Y"))),
		); err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, two := assertEquivalent(t, build)
	// Facts are inserted in job order, so even the raw (unsorted) row
	// order must match.
	if got, want := fmt.Sprint(two.Store.Rel("tc/2").Rows()), fmt.Sprint(one.Store.Rel("tc/2").Rows()); got != want {
		t.Errorf("row order mismatch:\nprocs1: %s\nprocs2: %s", want, got)
	}
}

func TestParallelEquivalenceIndependentGroups(t *testing.T) {
	// Four mutually independent recursive predicates in the same stratum:
	// the shape that used to be split into groups evaluated side by side,
	// each counting its own rounds.
	build := func() *Engine {
		e := NewEngine(nil)
		rels := []string{"r0", "r1", "r2", "r3"}
		for _, base := range rels {
			for i := 0; i < 6; i++ {
				f := e.AddFact(base+"edge", term.Int(int64(i)), term.Int(int64(i+1)))
				if f != nil {
					t.Fatal(f)
				}
			}
			tc := base + "tc"
			if err := e.AddRules(
				NewRule(Lit(tc, v("X"), v("Y")), Lit(base+"edge", v("X"), v("Y"))),
				NewRule(Lit(tc, v("X"), v("Y")), Lit(tc, v("X"), v("Z")), Lit(base+"edge", v("Z"), v("Y"))),
			); err != nil {
				t.Fatal(err)
			}
		}
		// A second stratum reading all four closures; the negation keeps
		// it above them instead of joining their level.
		if err := e.AddRule(NewRule(Lit("reach", v("X"), v("Y")),
			Lit("r0tc", v("X"), v("Y")), Lit("r1tc", v("X"), v("Y")),
			Lit("r2tc", v("X"), v("Y")), Lit("r3tc", v("X"), v("Y")),
			Not("blocked", v("X")))); err != nil {
			t.Fatal(err)
		}
		return e
	}
	assertEquivalent(t, build)
}

func TestParallelEquivalenceStratifiedNegation(t *testing.T) {
	build := func() *Engine {
		e := NewEngine(nil)
		for _, n := range []string{"a", "b", "c", "d", "e", "f"} {
			if err := e.AddFact("node", atom(n)); err != nil {
				t.Fatal(err)
			}
		}
		for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"d", "e"}} {
			if err := e.AddFact("edge", atom(p[0]), atom(p[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddFact("start", atom("a")); err != nil {
			t.Fatal(err)
		}
		if err := e.AddRules(
			NewRule(Lit("reach", v("X")), Lit("start", v("X"))),
			NewRule(Lit("reach", v("Y")), Lit("reach", v("X")), Lit("edge", v("X"), v("Y"))),
			NewRule(Lit("unreachable", v("X")), Lit("node", v("X")), Not("reach", v("X"))),
			// An independent predicate in the negation stratum.
			NewRule(Lit("dead", v("X")), Lit("edge", v("X"), v("Y")), Not("reach", v("Y"))),
		); err != nil {
			t.Fatal(err)
		}
		return e
	}
	assertEquivalent(t, build)
}

func TestParallelEquivalenceAggregates(t *testing.T) {
	build := func() *Engine {
		e := NewEngine(nil)
		for i := 0; i < 20; i++ {
			if err := e.AddFact("has", atom(fmt.Sprintf("n%d", i%5)), term.Int(int64(i))); err != nil {
				t.Fatal(err)
			}
		}
		cnt := Aggregate{Result: v("N"), Op: AggCount, Value: v("B"),
			GroupBy: []term.Term{v("A")}, Body: []Literal{Lit("has", v("A"), v("B"))}}
		sum := Aggregate{Result: v("S"), Op: AggSum, Value: v("B"),
			GroupBy: []term.Term{v("A")}, Body: []Literal{Lit("has", v("A"), v("B"))}}
		if err := e.AddRules(
			NewRule(Lit("cnt", v("A"), v("N")), cnt),
			NewRule(Lit("sum", v("A"), v("S")), sum),
		); err != nil {
			t.Fatal(err)
		}
		return e
	}
	assertEquivalent(t, build)
}

func TestParallelEquivalenceWellFounded(t *testing.T) {
	build := func() *Engine {
		e := NewEngine(nil)
		// win/move over a graph with a draw cycle, a winning chain and a
		// larger even cycle: exercises the alternating fixpoint with a
		// non-empty undefined set.
		moves := [][2]string{
			{"a", "b"}, {"b", "a"},
			{"c", "d"}, {"d", "e"},
			{"p", "q"}, {"q", "r"}, {"r", "s"}, {"s", "p"},
		}
		for _, p := range moves {
			if err := e.AddFact("move", atom(p[0]), atom(p[1])); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddRule(NewRule(Lit("win", v("X")), Lit("move", v("X"), v("Y")), Not("win", v("Y")))); err != nil {
			t.Fatal(err)
		}
		return e
	}
	one, two := assertEquivalent(t, build)
	if one.Stratified || two.Stratified {
		t.Fatal("win/move should take the well-founded path")
	}
	if one.Undefined == nil || one.Undefined.Size() == 0 {
		t.Fatal("expected a non-empty undefined set")
	}
}

func TestParallelEquivalenceQueries(t *testing.T) {
	build := func() *Engine {
		e := NewEngine(nil)
		for _, p := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}, {"b", "e"}} {
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
		return e
	}
	one, two := assertEquivalent(t, build)
	body := []BodyElem{Lit("tc", v("X"), v("Y"))}
	q1, err := one.Query(body, []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	q2, err := two.Query(body, []string{"X", "Y"})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(q1) != fmt.Sprint(q2) {
		t.Errorf("query answers differ:\nprocs1: %v\nprocs2: %v", q1, q2)
	}
}

// TestParallelEquivalenceRandom generates random stratified programs
// (several independent recursive closures plus a negation stratum over
// random graphs) and checks agreement across GOMAXPROCS on each.
func TestParallelEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			build := func() *Engine {
				rng := rand.New(rand.NewSource(seed))
				e := NewEngine(nil)
				nGraphs := 2 + rng.Intn(3)
				for g := 0; g < nGraphs; g++ {
					edge := fmt.Sprintf("e%d", g)
					tc := fmt.Sprintf("t%d", g)
					nNodes := 4 + rng.Intn(8)
					nEdges := nNodes + rng.Intn(nNodes)
					for i := 0; i < nEdges; i++ {
						a := term.Int(int64(rng.Intn(nNodes)))
						b := term.Int(int64(rng.Intn(nNodes)))
						if err := e.AddFact(edge, a, b); err != nil {
							t.Fatal(err)
						}
					}
					if err := e.AddRules(
						NewRule(Lit(tc, v("X"), v("Y")), Lit(edge, v("X"), v("Y"))),
						NewRule(Lit(tc, v("X"), v("Y")), Lit(tc, v("X"), v("Z")), Lit(edge, v("Z"), v("Y"))),
						// Negation stratum per graph: nodes with no outgoing
						// closure edge back to themselves.
						NewRule(Lit("acyc"+tc, v("X"), v("Y")), Lit(tc, v("X"), v("Y")), Not(tc, v("Y"), v("X"))),
					); err != nil {
						t.Fatal(err)
					}
				}
				return e
			}
			assertEquivalent(t, build)
		})
	}
}
