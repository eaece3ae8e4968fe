package mediator

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"modelmed/internal/gcm"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// namedUnitModel is unitModel with a configurable source name, so a
// federation of one-class sources can be registered side by side.
func namedUnitModel(t testing.TB, name string, n int) *gcm.Model {
	t.Helper()
	m := gcm.NewModel(name)
	m.AddClass(&gcm.Class{Name: "rec", Methods: []gcm.MethodSig{
		{Name: "location", Result: "string", Anchor: true},
		{Name: "value", Result: "integer", Scalar: true},
	}})
	for i := 0; i < n; i++ {
		m.AddObject(gcm.Object{
			ID:    term.Atom(fmt.Sprintf("%s_rec%d", name, i)),
			Class: "rec",
			Values: map[string][]term.Term{
				"location": {term.Atom("spine")},
				"value":    {term.Int(int64(i))},
			},
		})
	}
	return m
}

// TestConcurrentReportsMergeBySource is the regression test for the
// lastReports race: two concurrent guarded queries against differently
// faulted wrappers must both leave their report visible — before the
// merge-by-source fix, whichever query finished last overwrote the
// other's report wholesale.
func TestConcurrentReportsMergeBySource(t *testing.T) {
	opts := fastRetry(3)
	m := New(sources.NeuroDM(), &opts)
	// Source A fails its first two calls on every call site (degraded
	// with retries); source B answers cleanly but slowly, so the two
	// guarded queries genuinely overlap.
	wa, err := wrapper.NewInMemory(namedUnitModel(t, "A", 4))
	if err != nil {
		t.Fatal(err)
	}
	wb, err := wrapper.NewInMemory(namedUnitModel(t, "B", 4))
	if err != nil {
		t.Fatal(err)
	}
	fa := wrapper.NewFaulty(wa, wrapper.FaultConfig{FailFirst: 2})
	fb := wrapper.NewFaulty(wb, wrapper.FaultConfig{Latency: 2 * time.Millisecond})
	for _, w := range []wrapper.Wrapper{fa, fb} {
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i, src := range []string{"A", "B"} {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			_, errs[i] = m.PushSelect(src, "rec")
		}(i, src)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}

	reports := m.SourceReports()
	if len(reports) != 2 {
		t.Fatalf("SourceReports() = %+v, want reports for both A and B", reports)
	}
	ra := reportFor(t, reports, "A")
	if ra.Status != StatusDegraded || ra.Retries != 2 {
		t.Errorf("report A = %+v, want degraded with 2 retries", ra)
	}
	rb := reportFor(t, reports, "B")
	if rb.Status != StatusOK || rb.Retries != 0 {
		t.Errorf("report B = %+v, want OK with no retries", rb)
	}
}

// TestTraceDisabledByDefault pins the zero-cost contract: without
// EnableTracing no span is recorded and no counters exist.
func TestTraceDisabledByDefault(t *testing.T) {
	m := newNeuroMediator(t, 10, 20, 10)
	if _, err := m.Query("src_obj('NCMIR', O, protein)", "O"); err != nil {
		t.Fatal(err)
	}
	if sp := m.LastTrace(); sp != nil {
		t.Errorf("LastTrace() = %v with tracing off, want nil", sp.Name())
	}
	if c := m.ObsCounters(); c != nil {
		t.Errorf("ObsCounters() non-nil with tracing off")
	}
}

// TestTraceQuerySpans: a traced Query records the parse → materialize
// (with per-source fan-out children) → evaluate span tree and feeds the
// datalog counters.
func TestTraceQuerySpans(t *testing.T) {
	m := newNeuroMediator(t, 10, 20, 10)
	m.EnableTracing(true)
	if _, err := m.Query("src_obj('NCMIR', O, protein)", "O"); err != nil {
		t.Fatal(err)
	}
	sp := m.LastTrace()
	if sp == nil || sp.Name() != "mediator.query" {
		t.Fatalf("LastTrace() = %v, want mediator.query root", sp)
	}
	for _, name := range []string{"parse", "materialize", "sources", "source NCMIR", "source SYNAPSE", "source SENSELAB", "evaluate", "datalog.run"} {
		if sp.Find(name) == nil {
			t.Errorf("span %q missing from trace:\n%s", name, sp.Render())
		}
	}
	c := m.ObsCounters()
	if c == nil {
		t.Fatal("ObsCounters() = nil with tracing on")
	}
	if c.Get("datalog.rounds") == 0 || c.Get("datalog.facts_derived") == 0 {
		t.Errorf("datalog counters not fed: %v", c.Snapshot())
	}

	// Cached materialization on the second query is marked as a hit.
	if _, err := m.Query("src_obj('NCMIR', O, protein)", "O"); err != nil {
		t.Fatal(err)
	}
	if got, ok := m.LastTrace().Find("materialize").Str("cache"); !ok || got != "hit" {
		t.Errorf("second query cache attr = %q, want hit", got)
	}

	// Turning tracing off clears the captured state and stops recording.
	m.EnableTracing(false)
	if m.LastTrace() != nil || m.ObsCounters() != nil {
		t.Error("EnableTracing(false) did not clear trace state")
	}
}

// TestTraceSection5Stages: the Section 5 plan records one child span
// per step, the stage durations nest inside the end-to-end span, and
// the plan's own span is what LastTrace returns (not one of the nested
// query roots).
func TestTraceSection5Stages(t *testing.T) {
	m := newNeuroMediator(t, 40, 120, 30)
	m.EnableTracing(true)
	res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	if res.Span == nil || res.Span.Name() != "mediator.section5" {
		t.Fatalf("Section5Result.Span = %v, want mediator.section5", res.Span)
	}
	if m.LastTrace() != res.Span {
		t.Errorf("LastTrace() = %v, want the section5 root", m.LastTrace().Name())
	}
	var sum time.Duration
	for _, name := range []string{"step1 pushdown", "step2 source_selection", "step3 proteins", "step4 distribution"} {
		st := res.Span.Find(name)
		if st == nil {
			t.Fatalf("stage %q missing:\n%s", name, res.Span.Render())
		}
		sum += st.Duration()
	}
	if total := res.Span.Duration(); sum > total {
		t.Errorf("stage durations sum %v exceeds end-to-end %v", sum, total)
	}
	if n, ok := res.Span.Find("step3 proteins").Int("proteins"); !ok || n != int64(len(res.Proteins)) {
		t.Errorf("step3 proteins attr = %d, want %d", n, len(res.Proteins))
	}
}

// TestTraceDoesNotChangeAnswers: the traced and untraced mediators
// return identical Section 5 results.
func TestTraceDoesNotChangeAnswers(t *testing.T) {
	run := func(trace bool) string {
		m := newNeuroMediator(t, 20, 60, 15)
		m.EnableTracing(trace)
		res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("%v|%v|%s|%d", res.Pairs, res.Proteins, res.Root, len(res.Distributions))
	}
	if on, off := run(true), run(false); on != off {
		t.Errorf("traced answer %q differs from untraced %q", on, off)
	}
}

// TestTraceGuardedFanOut: with the fault layer on and tracing enabled,
// the per-source spans carry the guard's annotations and the mediator
// counters record attempts and retries.
func TestTraceGuardedFanOut(t *testing.T) {
	m, _ := newUnitMediator(t, 6, wrapper.FaultConfig{FailFirst: 2}, fastRetry(3))
	m.EnableTracing(true)
	if got := countRows(t, m, "src_obj('REC', O, rec)", "O"); got != 6 {
		t.Fatalf("got %d objects, want 6", got)
	}
	sp := m.LastTrace()
	if sp == nil {
		t.Fatal("no trace recorded")
	}
	src := sp.Find("source REC")
	if src == nil {
		t.Fatalf("no per-source span:\n%s", sp.Render())
	}
	if st, ok := src.Str("status"); !ok || st != StatusDegraded.String() {
		t.Errorf("source span status = %q, want degraded", st)
	}
	if n, ok := src.Int("retries"); !ok || n != 2 {
		t.Errorf("source span retries = %d, want 2", n)
	}
	c := m.ObsCounters()
	if c.Get("mediator.source_attempts") < 3 || c.Get("mediator.source_retries") != 2 {
		t.Errorf("mediator counters = %v", c.Snapshot())
	}
	// The wrapper sink sees the injected faults.
	if c.Get("wrapper.REC.injected_errors") != 2 || c.Get("wrapper.REC.calls") < 3 {
		t.Errorf("wrapper counters = %v", c.Snapshot())
	}
	if !strings.Contains(c.Render(), "mediator.source_retries") {
		t.Errorf("counter render missing keys:\n%s", c.Render())
	}
}
