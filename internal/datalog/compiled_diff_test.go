package datalog

// Differential harness for the compiled executor: for every program
// shape the incremental harness exercises (recursion, stratified
// negation, aggregates, well-founded), a compiled evaluation must be
// set-equal to an interpreted one (Options.Interpret) over the same
// seeded EDB — under GOMAXPROCS 1 and 4 (see setProcs). Run with -race
// in CI.

import (
	"fmt"
	"math/rand"
	"testing"
)

// runCompiledVsInterpreted evaluates one seeded EDB under both
// executors and compares the full fixpoint (and undefined set, for
// well-founded programs).
func runCompiledVsInterpreted(t *testing.T, p diffProgram, seed int64) {
	r := rand.New(rand.NewSource(seed))
	compiled := NewEngine(nil)
	interp := NewEngine(&Options{Interpret: true})
	if err := compiled.AddRules(p.rules...); err != nil {
		t.Fatal(err)
	}
	if err := interp.AddRules(p.rules...); err != nil {
		t.Fatal(err)
	}
	for i, n := 0, 20+r.Intn(30); i < n; i++ {
		dp := p.preds[r.Intn(len(p.preds))]
		args := dp.gen(r)
		if err := compiled.AddFact(dp.name, args...); err != nil {
			t.Fatal(err)
		}
		if err := interp.AddFact(dp.name, args...); err != nil {
			t.Fatal(err)
		}
	}
	got, err := compiled.Run()
	if err != nil {
		t.Fatalf("compiled run: %v", err)
	}
	want, err := interp.Run()
	if err != nil {
		t.Fatalf("interpreted run: %v", err)
	}
	label := fmt.Sprintf("%s/seed=%d", p.name, seed)
	storesEqual(t, label, got.Store, want.Store)
	if got.Undefined != nil || want.Undefined != nil {
		storesEqual(t, label+"/undefined", got.Undefined, want.Undefined)
	}
}

// TestCompiledDifferential runs 160 seeded evaluations (4 programs x
// 20 seeds x GOMAXPROCS 1/4) comparing the compiled executor against
// the interpreter.
func TestCompiledDifferential(t *testing.T) {
	for _, p := range diffPrograms() {
		p := p
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", p.name, procs), func(t *testing.T) {
				setProcs(t, procs)
				for seed := int64(0); seed < 20; seed++ {
					runCompiledVsInterpreted(t, p, seed)
				}
			})
		}
	}
}

// TestCompiledDifferentialIncremental drives the incremental harness
// with interpretation forced off and on, confirming DRed maintenance
// agrees between executors as well.
func TestCompiledDifferentialIncremental(t *testing.T) {
	for _, p := range diffPrograms() {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(100); seed < 105; seed++ {
				r := rand.New(rand.NewSource(seed))
				compiled := NewEngine(nil)
				interp := NewEngine(&Options{Interpret: true})
				if err := compiled.AddRules(p.rules...); err != nil {
					t.Fatal(err)
				}
				if err := interp.AddRules(p.rules...); err != nil {
					t.Fatal(err)
				}
				for i, n := 0, 10+r.Intn(10); i < n; i++ {
					dp := p.preds[r.Intn(len(p.preds))]
					args := dp.gen(r)
					if err := compiled.AddFact(dp.name, args...); err != nil {
						t.Fatal(err)
					}
					if err := interp.AddFact(dp.name, args...); err != nil {
						t.Fatal(err)
					}
				}
				cres, err := compiled.Run()
				if err != nil {
					t.Fatal(err)
				}
				ires, err := interp.Run()
				if err != nil {
					t.Fatal(err)
				}
				for s := 0; s < 4; s++ {
					dc, di := NewDelta(), NewDelta()
					for i, n := 0, 1+r.Intn(4); i < n; i++ {
						dp := p.preds[r.Intn(len(p.preds))]
						args := dp.gen(r)
						if r.Intn(3) == 0 {
							if err := dc.Del(dp.name, args...); err != nil {
								t.Fatal(err)
							}
							if err := di.Del(dp.name, args...); err != nil {
								t.Fatal(err)
							}
						} else {
							if err := dc.Add(dp.name, args...); err != nil {
								t.Fatal(err)
							}
							if err := di.Add(dp.name, args...); err != nil {
								t.Fatal(err)
							}
						}
					}
					cres, err = compiled.ApplyDelta(cres, dc)
					if err != nil {
						t.Fatalf("compiled step %d: %v", s, err)
					}
					ires, err = interp.ApplyDelta(ires, di)
					if err != nil {
						t.Fatalf("interpreted step %d: %v", s, err)
					}
					label := fmt.Sprintf("%s/seed=%d/step=%d", p.name, seed, s)
					storesEqual(t, label, cres.Store, ires.Store)
				}
			}
		})
	}
}
