package datalog

import (
	"fmt"
	"math/rand"
	"testing"

	"modelmed/internal/term"
)

// refWinLose computes the win/move game solution independently of the
// engine: a position is LOST if every move leads to a WON position
// (vacuously, if it has no moves), WON if some move leads to a LOST
// position; the rest is UNDEFINED (drawn). This is the textbook
// semantics of the well-founded model of win(X) :- move(X,Y), not win(Y).
func refWinLose(nodes []string, moves map[string][]string) (won, lost map[string]bool) {
	won = map[string]bool{}
	lost = map[string]bool{}
	for {
		changed := false
		for _, n := range nodes {
			if won[n] || lost[n] {
				continue
			}
			allWon := true
			someLost := false
			for _, m := range moves[n] {
				if !won[m] {
					allWon = false
				}
				if lost[m] {
					someLost = true
				}
			}
			if someLost {
				won[n] = true
				changed = true
			} else if allWon { // includes the no-moves case
				lost[n] = true
				changed = true
			}
		}
		if !changed {
			return won, lost
		}
	}
}

// TestWellFoundedWinMoveProperty checks the engine's well-founded model
// of the win/move program against the independent game-theoretic
// solution on random graphs.
func TestWellFoundedWinMoveProperty(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nNodes := 3 + r.Intn(8)
		var nodes []string
		for i := 0; i < nNodes; i++ {
			nodes = append(nodes, fmt.Sprintf("p%d", i))
		}
		moves := map[string][]string{}
		e := NewEngine(nil)
		nEdges := r.Intn(2 * nNodes)
		for i := 0; i < nEdges; i++ {
			a := nodes[r.Intn(nNodes)]
			b := nodes[r.Intn(nNodes)]
			dup := false
			for _, m := range moves[a] {
				if m == b {
					dup = true
				}
			}
			if dup {
				continue
			}
			moves[a] = append(moves[a], b)
			if err := e.AddFact("move", atom(a), atom(b)); err != nil {
				t.Fatal(err)
			}
		}
		for _, n := range nodes {
			if err := e.AddFact("pos", atom(n)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AddRule(NewRule(Lit("win", v("X")),
			Lit("move", v("X"), v("Y")), Not("win", v("Y")))); err != nil {
			t.Fatal(err)
		}
		res, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		won, lost := refWinLose(nodes, moves)
		for _, n := range nodes {
			gotWin := res.Holds("win", atom(n))
			gotUndef := res.IsUndefined("win", atom(n))
			switch {
			case won[n]:
				if !gotWin {
					t.Errorf("trial %d: %s should be won (moves %v)", trial, n, moves)
				}
			case lost[n]:
				if gotWin || gotUndef {
					t.Errorf("trial %d: %s should be lost, got win=%v undef=%v", trial, n, gotWin, gotUndef)
				}
			default:
				if !gotUndef {
					t.Errorf("trial %d: %s should be undefined (draw)", trial, n)
				}
			}
		}
	}
}

// TestWFSAgreesOnStratified: for stratified programs, the well-founded
// model has no undefined atoms and coincides with the stratified
// evaluation. We force the WFS path by evaluating the same rules through
// runWellFounded directly.
func TestWFSAgreesOnStratified(t *testing.T) {
	seedSrc := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		build := func(r *rand.Rand) *Engine {
			e := NewEngine(nil)
			for i := 0; i < 10; i++ {
				a := fmt.Sprintf("n%d", r.Intn(6))
				b := fmt.Sprintf("n%d", r.Intn(6))
				if err := e.AddFact("edge", atom(a), atom(b)); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 6; i++ {
				if err := e.AddFact("node", atom(fmt.Sprintf("n%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := e.AddRules(
				NewRule(Lit("tc", v("X"), v("Y")), Lit("edge", v("X"), v("Y"))),
				NewRule(Lit("tc", v("X"), v("Y")), Lit("tc", v("X"), v("Z")), Lit("edge", v("Z"), v("Y"))),
				NewRule(Lit("sink", v("X")), Lit("node", v("X")), Not("hasout", v("X"))),
				NewRule(Lit("hasout", v("X")), Lit("edge", v("X"), v("Y"))),
			); err != nil {
				t.Fatal(err)
			}
			return e
		}
		// The same random draw must feed both engines.
		seed := seedSrc.Int63()
		e1 := build(rand.New(rand.NewSource(seed)))
		e2 := build(rand.New(rand.NewSource(seed)))

		strat, err := e1.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !strat.Stratified {
			t.Fatal("program should be stratified")
		}
		wfs, err := e2.runWellFounded(e2.edb, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wfs.Undefined.Size() != 0 {
			t.Errorf("trial %d: stratified program has undefined atoms under WFS", trial)
		}
		for _, key := range strat.Store.Keys() {
			if strat.Store.Count(key) != wfs.Store.Count(key) {
				t.Errorf("trial %d: %s differs: stratified %d vs WFS %d",
					trial, key, strat.Store.Count(key), wfs.Store.Count(key))
			}
		}
	}
}

// TestOrderBodyStability: ordering is deterministic and safe for a
// corpus of structurally diverse rules.
func TestOrderBodyStability(t *testing.T) {
	rules := []Rule{
		NewRule(Lit("p", v("X")), Not("r", v("X")), Lit("q", v("X"))),
		NewRule(Lit("p", v("X"), v("S")),
			Lit("q", v("X")),
			Aggregate{Result: v("S"), Op: AggCount, Value: v("Y"),
				GroupBy: []term.Term{v("X")}, Body: []Literal{Lit("r", v("X"), v("Y"))}}),
		NewRule(Lit("p", v("Z")),
			Lit(BuiltinIs, v("Z"), term.Comp("+", v("X"), v("Y"))),
			Lit("a", v("X")), Lit("b", v("Y"))),
	}
	for _, r := range rules {
		o1, err := OrderBody(r)
		if err != nil {
			t.Fatalf("rule %s: %v", r, err)
		}
		o2, err := OrderBody(r)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(o1) != fmt.Sprint(o2) {
			t.Errorf("rule %s: ordering not deterministic", r)
		}
	}
}
