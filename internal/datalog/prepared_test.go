package datalog

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestPreparedQueryStaleConstant: a query prepared while one of its
// constants had no ID answers nothing on it, and once the constant is
// interned the same PreparedQuery is stale and answers the rows that
// hold it, on the compiled path and, under both a negation and a
// probe, like an unprepared query.
func TestPreparedQueryStaleConstant(t *testing.T) {
	// The intern table is process-wide: a name of its own each run.
	fresh := fmt.Sprintf("prepared_stale_constant_%d", staleRuns.Add(1))
	queries := []struct {
		body []BodyElem
		vars []string
	}{
		{[]BodyElem{Lit("p", v("X"), atom(fresh))}, []string{"X"}},
		{[]BodyElem{Lit("p", v("X"), v("Y")), Not("p", v("X"), atom(fresh))}, []string{"X", "Y"}},
	}
	prepared := make([]*PreparedQuery, len(queries))
	base := NewEngine(nil)
	if err := base.AddFact("p", atom("a"), atom("b")); err != nil {
		t.Fatal(err)
	}
	before := mustRun(t, base)
	for i, q := range queries {
		p, err := PrepareQuery(q.body, q.vars)
		if err != nil {
			t.Fatal(err)
		}
		if p.Stale() {
			t.Fatalf("query %d: stale before its constant is interned", i)
		}
		prepared[i] = p
		got, st, err := before.QueryPrepared(context.Background(), p)
		want, _, werr := before.QueryWithStats(context.Background(), q.body, q.vars)
		if err != nil || werr != nil || !st.Compiled {
			t.Fatalf("query %d: %v / %v, compiled %v", i, err, werr, st.Compiled)
		}
		if !slices.EqualFunc(RenderRows(got), RenderRows(want), slices.Equal) {
			t.Fatalf("query %d before: got %v, want %v", i, RenderRows(got), RenderRows(want))
		}
	}

	e := NewEngine(nil)
	for _, f := range [][2]string{{"a", "b"}, {"c", fresh}} {
		if err := e.AddFact("p", atom(f[0]), atom(f[1])); err != nil {
			t.Fatal(err)
		}
	}
	after := mustRun(t, e)
	for i, q := range queries {
		p := prepared[i]
		if !p.Stale() {
			t.Fatalf("query %d: not stale once its constant is interned", i)
		}
		got, st, err := after.QueryPrepared(context.Background(), p)
		want, _, werr := after.QueryWithStats(context.Background(), q.body, q.vars)
		if err != nil || werr != nil || !st.Compiled {
			t.Fatalf("query %d: %v / %v, compiled %v", i, err, werr, st.Compiled)
		}
		if len(want) == 0 || !slices.EqualFunc(RenderRows(got), RenderRows(want), slices.Equal) {
			t.Fatalf("query %d after: got %v, want %v", i, RenderRows(got), RenderRows(want))
		}
	}
}

var staleRuns atomic.Int64

// TestPreparedQueryConcurrent: one PreparedQuery run by 8 goroutines at
// once, over results of different sizes, answers each as an unprepared
// query does; under -race this also holds the prepared query and the
// pooled answer scratch free of shared writes.
func TestPreparedQueryConcurrent(t *testing.T) {
	results := make([]*Result, 4)
	for i := range results {
		results[i] = srcObjResult(t, 50*(i+1))
	}
	body := []BodyElem{Lit("src_obj", v("S"), v("O"), atom("class3"))}
	vars := []string{"S", "O"}
	p, err := PrepareQuery(body, vars)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][][]string, len(results))
	for i, res := range results {
		rows, _, err := res.QueryWithStats(context.Background(), body, vars)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = RenderRows(rows)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				i := (g + n) % len(results)
				rows, _, err := results[i].QueryPrepared(context.Background(), p)
				if err == nil && !slices.EqualFunc(RenderRows(rows), want[i], slices.Equal) {
					err = fmt.Errorf("result %d: %d rows, want %d", i, len(rows), len(want[i]))
				}
				if err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
