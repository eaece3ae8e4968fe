package mediator

import (
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"modelmed/internal/datalog"
)

func TestFanOutCoversAllIndices(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		fanOut(n, workers, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestFanOutZeroTasks(t *testing.T) {
	fanOut(0, 4, func(i int) { t.Fatalf("task ran for n=0: %d", i) })
}

func TestFanOutSerialOrder(t *testing.T) {
	var order []int
	fanOut(5, 1, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("serial path out of order: %v", order)
		}
	}
}

func TestFanOutPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("workers=%d: panic not propagated", workers)
				}
				if s, ok := r.(string); workers > 1 && (!ok || !strings.Contains(s, "boom")) {
					t.Fatalf("workers=%d: unexpected panic value %v", workers, r)
				}
			}()
			fanOut(8, workers, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// setProcs sets runtime.GOMAXPROCS — the bound of the source fan-out —
// to n until t ends. The differential suites run their "workers=N"
// subtests under it; the labels predate the removal of
// datalog.Options.Workers. The setting is process-wide, so a test that
// calls it must not run in parallel.
func setProcs(t testing.TB, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// serialAndConcurrent builds the neuro scenario twice and runs f on each:
// once under GOMAXPROCS 1, where the source fan-out runs inline in source
// order, and once under GOMAXPROCS 8, where it runs concurrently.
func serialAndConcurrent[T any](t *testing.T, nSyn, nNcm, nSl int, f func(m *Mediator) T) (serial, concurrent T) {
	t.Helper()
	run := func(procs int) T {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return f(newNeuroMediator(t, nSyn, nNcm, nSl))
	}
	return run(1), run(8)
}

// dumpResult renders a materialization result as a sorted text dump.
func dumpResult(res *datalog.Result) string {
	var b strings.Builder
	for _, k := range res.Store.Keys() {
		for _, row := range res.Store.Rel(k).SortedRows() {
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

// TestParallelMaterializeEquivalence checks that the concurrent source
// fan-out produces the same mediated object base and the same query
// answers as a serial one.
func TestParallelMaterializeEquivalence(t *testing.T) {
	type out struct {
		dump string
		rows string
	}
	serial, concurrent := serialAndConcurrent(t, 20, 60, 15, func(m *Mediator) out {
		res, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		ans, err := m.Query(chaosQ, "O", "A")
		if err != nil {
			t.Fatal(err)
		}
		return out{dumpResult(res), fmt.Sprint(ans.Rows)}
	})
	if serial.dump != concurrent.dump {
		t.Fatal("materialized stores differ")
	}
	if serial.rows != concurrent.rows {
		t.Errorf("query answers differ:\nserial:     %s\nconcurrent: %s", serial.rows, concurrent.rows)
	}
}

// TestParallelPlannedQueryEquivalence checks the planned path: over a
// concurrent build it must return the same answer rows and the same
// plan decisions as over a serial one.
func TestParallelPlannedQueryEquivalence(t *testing.T) {
	type out struct {
		ans  *Answer
		plan *QueryPlan
	}
	serial, concurrent := serialAndConcurrent(t, 20, 60, 15, func(m *Mediator) out {
		ans, plan, err := m.PlannedQuery(chaosQ, "O", "A")
		if err != nil {
			t.Fatal(err)
		}
		return out{ans, plan}
	})
	as, ac := serial.ans, concurrent.ans
	plans, planc := serial.plan, concurrent.plan
	if fmt.Sprint(as.Rows) != fmt.Sprint(ac.Rows) {
		t.Errorf("planned answers differ:\nserial:     %v\nconcurrent: %v", as.Rows, ac.Rows)
	}
	if fmt.Sprint(plans.Sources) != fmt.Sprint(planc.Sources) {
		t.Errorf("plan sources differ: serial=%v concurrent=%v", plans.Sources, planc.Sources)
	}
	if len(plans.Pushdowns) != len(planc.Pushdowns) {
		t.Fatalf("pushdown counts differ: serial=%d concurrent=%d", len(plans.Pushdowns), len(planc.Pushdowns))
	}
	for i := range plans.Pushdowns {
		s, c := plans.Pushdowns[i], planc.Pushdowns[i]
		if s.Pushed != c.Pushed || s.Returned != c.Returned || s.Source != c.Source {
			t.Errorf("pushdown %d differs: serial=%+v concurrent=%+v", i, s, c)
		}
	}
}

// TestParallelSection5Equivalence runs the full Section 5 protein query
// with a serial and a concurrent fan-out.
func TestParallelSection5Equivalence(t *testing.T) {
	serial, concurrent := serialAndConcurrent(t, 40, 120, 30, func(m *Mediator) *Section5Result {
		res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
		if err != nil {
			t.Fatal(err)
		}
		return res
	})
	if fmt.Sprint(serial.Pairs) != fmt.Sprint(concurrent.Pairs) {
		t.Errorf("pairs differ: serial=%v concurrent=%v", serial.Pairs, concurrent.Pairs)
	}
	if fmt.Sprint(serial.SelectedSources) != fmt.Sprint(concurrent.SelectedSources) {
		t.Errorf("selected sources differ: serial=%v concurrent=%v", serial.SelectedSources, concurrent.SelectedSources)
	}
	if fmt.Sprint(serial.Proteins) != fmt.Sprint(concurrent.Proteins) {
		t.Errorf("proteins differ: serial=%v concurrent=%v", serial.Proteins, concurrent.Proteins)
	}
}
