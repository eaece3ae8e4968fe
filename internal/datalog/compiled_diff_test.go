package datalog

// Differential harness for the compiled executor: for every program
// shape the incremental harness exercises (recursion, stratified
// negation, aggregates, well-founded), a compiled evaluation must be
// set-equal to an interpreted one (Options.Interpret) over the same
// seeded EDB — under GOMAXPROCS 1 and 4 (see setProcs) — and a
// compiled query must answer the same rows in the same order as an
// interpreted one. Run with -race in CI.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"modelmed/internal/term"
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

// queryShape draws random conjunctive queries over one program's
// predicates: joins whose arguments mix variables, interned constants
// and constants no fact holds (and so were never interned), with
// optional negation and builtins, projected onto random answer
// variables — often a single one, so that many solutions collapse into
// few rows.
type queryShape struct {
	r     *rand.Rand
	preds []queryPred
	fresh int
}

// queryPred is a predicate the query generator may use.
type queryPred struct {
	name  string
	arity int
}

func newQueryShape(r *rand.Rand, p diffProgram) *queryShape {
	q := &queryShape{r: r}
	seen := map[string]bool{}
	addPred := func(name string, arity int) {
		if k := PredKey(name, arity); !seen[k] {
			seen[k] = true
			q.preds = append(q.preds, queryPred{name, arity})
		}
	}
	for _, dp := range p.preds {
		addPred(dp.name, len(dp.gen(rand.New(rand.NewSource(0)))))
	}
	for _, rule := range p.rules {
		addPred(rule.Head.Pred, len(rule.Head.Args))
	}
	return q
}

var queryVars = []string{"A", "B", "C", "D"}

// constant returns a constant of the programs' universe or, one time
// in five, one no fact holds.
func (q *queryShape) constant() term.Term {
	if q.r.Intn(5) == 0 {
		q.fresh++
		switch q.r.Intn(3) {
		case 0:
			return term.Atom(fmt.Sprintf("never_%d_%d", q.r.Int63(), q.fresh))
		case 1:
			return term.Int(1_000_000 + q.r.Int63n(1_000_000))
		default:
			return term.Str(fmt.Sprintf("never %d", q.r.Int63()))
		}
	}
	switch q.r.Intn(3) {
	case 0:
		return term.Atom(fmt.Sprintf("n%d", q.r.Intn(7)))
	case 1:
		return term.Atom(fmt.Sprintf("g%d", q.r.Intn(3)))
	}
	return term.Int(int64(q.r.Intn(5)))
}

// arg returns a variable from the pool, or a bound one when only
// bound ones will do, or a constant.
func (q *queryShape) arg(bound []string) term.Term {
	if q.r.Intn(10) < 3 {
		return q.constant()
	}
	if bound != nil {
		if len(bound) == 0 {
			return q.constant()
		}
		return v(bound[q.r.Intn(len(bound))])
	}
	return v(queryVars[q.r.Intn(len(queryVars))])
}

func (q *queryShape) literal(bound []string) Literal {
	pi := q.preds[q.r.Intn(len(q.preds))]
	args := make([]term.Term, pi.arity)
	for i := range args {
		args[i] = q.arg(bound)
	}
	return Lit(pi.name, args...)
}

// body draws a query body and its answer variables.
func (q *queryShape) body() ([]BodyElem, []string) {
	var body []BodyElem
	var bound []string
	for i, n := 0, 1+q.r.Intn(3); i < n; i++ {
		l := q.literal(nil)
		body = append(body, l)
		bound = l.Vars(bound)
	}
	if q.r.Intn(3) == 0 {
		n := q.literal(bound)
		n.Neg = true
		body = append(body, n)
	}
	if q.r.Intn(2) == 0 {
		x, y := q.arg(bound), q.arg(bound)
		switch q.r.Intn(5) {
		case 0:
			body = append(body, Lit(BuiltinLess, x, y))
		case 1:
			body = append(body, Lit(BuiltinUnify, x, y))
		case 2:
			// Binds a fresh variable to a bound value.
			body = append(body, Lit(BuiltinUnify, v("E"), x))
			bound = append(bound, "E")
		case 3:
			body = append(body, Lit(BuiltinNotEq, x, y))
		default:
			body = append(body, Lit(BuiltinIs, v("E"), term.Comp("+", x, term.Int(1))))
			bound = append(bound, "E")
		}
	}
	var vars []string
	if len(bound) > 0 && q.r.Intn(3) == 0 {
		vars = []string{bound[q.r.Intn(len(bound))]}
	} else {
		for _, i := range q.r.Perm(len(bound)) {
			if q.r.Intn(3) > 0 {
				vars = append(vars, bound[i])
			}
		}
	}
	return body, vars
}

// sameAnswer compares two query outcomes: the same error-ness and the
// same rows in the same order.
func sameAnswer(t *testing.T, label string, got, want [][]Cell, gerr, werr error) {
	t.Helper()
	if (gerr != nil) != (werr != nil) {
		t.Fatalf("%s: compiled error %v, interpreted error %v", label, gerr, werr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows compiled, %d interpreted\ncompiled:    %v\ninterpreted: %v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d is %v compiled, %v interpreted", label, i, got[i], want[i])
		}
		for j := range got[i] {
			if !got[i][j].Term().Equal(want[i][j].Term()) {
				t.Fatalf("%s: row %d is %v compiled, %v interpreted", label, i, got[i], want[i])
			}
		}
	}
}

// evalBoth evaluates one seeded EDB of p on a compiled engine and on an
// interpreting one.
func evalBoth(t *testing.T, p diffProgram, seed int64) (compiled, interp *Result) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	ce := NewEngine(nil)
	ie := NewEngine(&Options{Interpret: true})
	if err := ce.AddRules(p.rules...); err != nil {
		t.Fatal(err)
	}
	if err := ie.AddRules(p.rules...); err != nil {
		t.Fatal(err)
	}
	for i, n := 0, 20+r.Intn(30); i < n; i++ {
		dp := p.preds[r.Intn(len(p.preds))]
		args := dp.gen(r)
		if err := ce.AddFact(dp.name, args...); err != nil {
			t.Fatal(err)
		}
		if err := ie.AddFact(dp.name, args...); err != nil {
			t.Fatal(err)
		}
	}
	compiled, err := ce.Run()
	if err != nil {
		t.Fatal(err)
	}
	interp, err = ie.Run()
	if err != nil {
		t.Fatal(err)
	}
	return compiled, interp
}

// TestQueryCompiledDifferential answers random queries over the
// suite's random programs on a compiled engine and on an interpreting
// one: every answer must be the same rows in the same order, and so
// must every answer over a per-query Extend layer.
func TestQueryCompiledDifferential(t *testing.T) {
	ctx := context.Background()
	queries, compiledRuns := 0, 0
	for _, p := range diffPrograms() {
		for seed := int64(0); seed < 10; seed++ {
			cres, ires := evalBoth(t, p, seed)
			q := newQueryShape(rand.New(rand.NewSource(seed+1000)), p)
			for i := 0; i < 60; i++ {
				body, vars := q.body()
				label := fmt.Sprintf("%s/seed=%d/q=%d: %v -> %v", p.name, seed, i, body, vars)
				got, st, gerr := cres.QueryWithStats(ctx, body, vars)
				want, ist, werr := ires.QueryWithStats(ctx, body, vars)
				sameAnswer(t, label, got, want, gerr, werr)
				if ist.Compiled {
					t.Fatalf("%s: the interpreting engine compiled the query", label)
				}
				if gerr == nil {
					queries++
					if st.Compiled {
						compiledRuns++
						if st.Solutions < len(got) {
							t.Fatalf("%s: %d solutions for %d rows", label, st.Solutions, len(got))
						}
					}
				}
			}
			if cres.Undefined != nil && cres.Undefined.Size() > 0 {
				continue // Extend needs a two-valued base
			}
			// A per-query layer: an auxiliary rule over a random body,
			// queried with more negation and projection on top.
			for i := 0; i < 20; i++ {
				body, vars := q.body()
				if len(vars) == 0 {
					continue
				}
				head := make([]term.Term, len(vars))
				for j, name := range vars {
					head[j] = v(name)
				}
				aux := []Rule{NewRule(Lit("qaux", head...), body...)}
				cx, cerr := cres.Extend(ctx, aux)
				ix, ierr := ires.Extend(ctx, aux)
				if (cerr != nil) != (ierr != nil) {
					t.Fatalf("extend %v: compiled %v, interpreted %v", aux, cerr, ierr)
				}
				if cerr != nil {
					continue
				}
				outer := []BodyElem{Lit("qaux", head...)}
				if q.r.Intn(2) == 0 {
					n := q.literal(vars)
					n.Neg = true
					outer = append(outer, n)
				}
				proj := vars[:1+q.r.Intn(len(vars))]
				label := fmt.Sprintf("%s/seed=%d/extend=%d: %v over %v", p.name, seed, i, outer, aux)
				got, gerr := cx.QueryCtx(ctx, outer, proj)
				want, werr := ix.QueryCtx(ctx, outer, proj)
				sameAnswer(t, label, got, want, gerr, werr)
			}
		}
	}
	t.Logf("%d answered queries, %d of them compiled", queries, compiledRuns)
	if compiledRuns < queries/2 {
		t.Errorf("only %d of %d answered queries ran compiled", compiledRuns, queries)
	}
}

// internedTerms is the size of the process-wide intern table.
func internedTerms() uint32 {
	interner.mu.Lock()
	defer interner.mu.Unlock()
	return interner.next
}

// TestQueryInternsNothing: a query leaves the intern table as it found
// it, whichever evaluator answers — with never-interned constants in
// positive, negated and builtin positions, with is, and with a
// compound built from bound variables. Not parallel: it reads the
// process-wide table.
func TestQueryInternsNothing(t *testing.T) {
	eng := NewEngine(nil)
	for i := 0; i < 6; i++ {
		if err := eng.AddFact("edge", term.Atom(fmt.Sprintf("in%d", i)), term.Atom(fmt.Sprintf("in%d", i+1))); err != nil {
			t.Fatal(err)
		}
		if err := eng.AddFact("val", term.Atom(fmt.Sprintf("in%d", i)), term.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh := func(s string) term.Term { return term.Atom("intern_probe_" + s) }
	X, Y, N, Z := v("X"), v("Y"), v("N"), v("Z")
	queries := []struct {
		name     string
		body     []BodyElem
		vars     []string
		compiled bool
		rows     int
	}{
		{"positive", []BodyElem{Lit("edge", fresh("pos"), Y)}, []string{"Y"}, true, 0},
		{"positive-later", []BodyElem{Lit("edge", X, Y), Lit("edge", Y, fresh("pos2"))}, []string{"X"}, true, 0},
		{"negated", []BodyElem{Lit("edge", X, Y), Not("edge", X, fresh("neg"))}, []string{"X"}, true, 6},
		{"negated-compound", []BodyElem{Lit("edge", X, Y), Not("edge", term.Comp("probe_f", X), Y)}, []string{"X"}, true, 6},
		{"less", []BodyElem{Lit("edge", X, Y), Lit(BuiltinLess, X, fresh("lt"))}, []string{"X"}, true, 6},
		{"unify", []BodyElem{Lit("edge", X, Y), Lit(BuiltinUnify, X, fresh("eq"))}, []string{"X"}, false, 0},
		{"disunify", []BodyElem{Lit("edge", X, Y), Lit(BuiltinNotEq, Y, fresh("neq"))}, []string{"X"}, false, 6},
		{"is", []BodyElem{Lit("val", X, N), Lit(BuiltinIs, Z, term.Comp("+", N, term.Int(7_654_321)))}, []string{"Z"}, false, 6},
		{"compound", []BodyElem{Lit("edge", X, Y), Lit(BuiltinUnify, Z, term.Comp("probe_g", X, Y))}, []string{"Z"}, false, 6},
	}
	before := internedTerms()
	for _, q := range queries {
		rows, st, err := res.QueryWithStats(context.Background(), q.body, q.vars)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if len(rows) != q.rows || st.Compiled != q.compiled {
			t.Errorf("%s: %d rows, compiled=%v; want %d rows, compiled=%v", q.name, len(rows), st.Compiled, q.rows, q.compiled)
		}
		if after := internedTerms(); after != before {
			t.Fatalf("%s: the intern table grew from %d to %d terms", q.name, before, after)
		}
	}
}

// TestInterpretedAnswerScratchSlab: the interpreter answers a value the
// intern table lacks (an is result, a query-body aggregate) from the
// answer's own scratch slab, without interning it, and deduplicates its
// rows by ID whether their values are interned or not. Every answer has
// a slab of its own: the same query answered twice shares only the
// interned terms, and the first answer still reads right after the
// second.
func TestInterpretedAnswerScratchSlab(t *testing.T) {
	eng := NewEngine(nil)
	for i := 0; i < 6; i++ {
		if err := eng.AddFact("val", term.Atom(fmt.Sprintf("slab%d", i)), term.Int(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	X, N, Z, S := v("X"), v("N"), v("Z"), v("S")
	shifted := term.Comp("+", term.Comp("mod", N, term.Int(3)), term.Int(8_765_432))
	queries := []struct {
		name string
		body []BodyElem
		vars []string
		want string
	}{
		{"interned is", []BodyElem{Lit("val", X, N), Lit(BuiltinIs, Z, term.Comp("mod", N, term.Int(3)))}, []string{"Z"},
			"[[0] [1] [2]]"},
		{"scratch is", []BodyElem{Lit("val", X, N), Lit(BuiltinIs, Z, shifted)}, []string{"Z"},
			"[[8765432] [8765433] [8765434]]"},
		{"mixed row", []BodyElem{Lit("val", X, N), Lit(BuiltinLess, N, term.Int(2)), Lit(BuiltinIs, Z, shifted)}, []string{"X", "Z"},
			"[[slab0 8765432] [slab1 8765433]]"},
		{"aggregate", []BodyElem{Aggregate{Result: S, Op: AggSum, Value: Z,
			Body: []Literal{Lit("val", X, N), Lit(BuiltinIs, Z, term.Comp("+", N, term.Int(8_765_432)))}}}, []string{"S"},
			"[[52592607]]"},
	}
	before := internedTerms()
	for _, q := range queries {
		first, st, err := res.QueryWithStats(context.Background(), q.body, q.vars)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if st.Compiled {
			t.Fatalf("%s: ran compiled, want the interpreter", q.name)
		}
		second, err := res.Query(q.body, q.vars)
		if err != nil {
			t.Fatalf("%s: %v", q.name, err)
		}
		if got := fmt.Sprint(first); got != q.want {
			t.Errorf("%s: got %s, want %s", q.name, got, q.want)
		}
		if got := fmt.Sprint(second); got != q.want {
			t.Errorf("%s, answered again: got %s, want %s", q.name, got, q.want)
		}
		for i, row := range first {
			for j, c := range row {
				id, interned := lookupID(c.Term())
				switch {
				case interned && c.t != termAt(id):
					t.Errorf("%s: interned cell %v does not point at the table", q.name, c)
				case !interned && c.t == second[i][j].t:
					t.Errorf("%s: scratch cell %v is shared by two answers", q.name, c)
				}
			}
		}
		if after := internedTerms(); after != before {
			t.Fatalf("%s: the intern table grew from %d to %d terms", q.name, before, after)
		}
	}
}

// TestQueryConcurrentReaders runs 8 goroutines querying one compiled
// result at once (run with -race): every answer equals the serial one.
func TestQueryConcurrentReaders(t *testing.T) {
	p := diffPrograms()[1] // negation
	cres, _ := evalBoth(t, p, 3)
	q := newQueryShape(rand.New(rand.NewSource(7)), p)
	type query struct {
		body []BodyElem
		vars []string
		want [][]Cell
		err  error
	}
	var qs []query
	for i := 0; i < 40; i++ {
		body, vars := q.body()
		want, err := cres.QueryCtx(context.Background(), body, vars)
		qs = append(qs, query{body, vars, want, err})
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range qs {
				qq := &qs[(i+g)%len(qs)]
				got, err := cres.QueryCtx(context.Background(), qq.body, qq.vars)
				if (err != nil) != (qq.err != nil) || fmt.Sprint(got) != fmt.Sprint(qq.want) {
					errs <- fmt.Sprintf("goroutine %d, %v: got %v (%v), want %v (%v)", g, qq.body, got, err, qq.want, qq.err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}
