package mediator

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
	"modelmed/internal/sources"
	"modelmed/internal/term"
)

// A planned query and the Section 5 plan read the state the mediator
// serves: a pushed delta, which no wrapper reports, reaches them as it
// reaches Query, and once the mediator has materialized they call no
// wrapper at all.

// plannedRows returns q's rows from PlannedQuery and from Query.
func plannedRows(t *testing.T, m *Mediator, q string) (planned, served string) {
	t.Helper()
	pa, _, err := m.PlannedQuery(q)
	if err != nil {
		t.Fatalf("PlannedQuery(%s): %v", q, err)
	}
	sa, err := m.Query(q)
	if err != nil {
		t.Fatalf("Query(%s): %v", q, err)
	}
	return fmt.Sprint(pa.Rows), fmt.Sprint(sa.Rows)
}

func TestPlannedQuerySeesPushedDelta(t *testing.T) {
	m := newNeuroMediator(t, 30, 60, 20)
	objects := `src_obj('SYNAPSE', O, C)`
	anchors := `anchor(S, O, C), dm_isa_star(C, dendrite)`
	for _, q := range []string{objects, anchors} {
		if planned, served := plannedRows(t, m, q); planned != served {
			t.Fatalf("%s before the push: planned %s, served %s", q, planned, served)
		}
	}
	before := countRows(t, m, objects)
	probe, obj, dendrite := term.Atom("SYNAPSE"), term.Atom("probe_obj"), term.Atom("dendrite")
	if _, err := m.ApplySourceDelta("SYNAPSE", []datalog.Rule{
		datalog.Fact(PredSrcObj, probe, obj, dendrite),
		datalog.Fact(PredAnchor, probe, obj, dendrite),
	}, nil); err != nil {
		t.Fatal(err)
	}
	if got := countRows(t, m, objects); got != before+1 {
		t.Fatalf("served %s: %d rows after the push, want %d", objects, got, before+1)
	}
	for _, q := range []string{objects, anchors} {
		if planned, served := plannedRows(t, m, q); planned != served {
			t.Errorf("%s after the push: planned %s, served %s", q, planned, served)
		}
	}
}

func TestSection5SeesPushedDelta(t *testing.T) {
	m := newNeuroMediator(t, 30, 60, 20)
	adds, err := parser.ParseRules(`
		src_obj('NCMIR', probe_prot, protein).
		src_val('NCMIR', probe_prot, name, "probe_prot").
		src_val('NCMIR', probe_prot, ion_bound, calcium).
		src_obj('NCMIR', probe_amount, protein_amount).
		src_val('NCMIR', probe_amount, protein_name, "probe_prot").
		src_val('NCMIR', probe_amount, location, dendrite).
		src_val('NCMIR', probe_amount, organism, "rat").
		src_val('NCMIR', probe_amount, amount, 5).
		anchor('NCMIR', probe_amount, dendrite).`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplySourceDelta("NCMIR", adds, nil); err != nil {
		t.Fatal(err)
	}
	res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(res.Proteins, "probe_prot") {
		t.Fatalf("proteins %v miss the pushed probe_prot\ntrace: %v", res.Proteins, res.Trace)
	}
	want, err := m.DistributionOf("probe_prot", "rat", res.Root)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Distributions["probe_prot"]; got == nil || got.String() != want.String() {
		t.Errorf("probe_prot distribution under %s:\n%v\nwant (DistributionOf):\n%v", res.Root, got, want)
	}
}

func TestPlannedReadsNoWrapper(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(11, 20, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	queries := func() []int {
		var out []int
		for _, w := range ws {
			out = append(out, w.Stats().Queries)
		}
		return out
	}
	before := queries()
	for _, q := range plannerQueries {
		if _, _, err := m.PlannedQuery(q); err != nil {
			t.Fatalf("PlannedQuery(%s): %v", q, err)
		}
	}
	if _, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium"); err != nil {
		t.Fatal(err)
	}
	if after := queries(); !slices.Equal(after, before) {
		t.Errorf("wrapper queries per source went from %v to %v", before, after)
	}
}

// plannerQueries are the queries of planner_test.go, and chaosQ.
var plannerQueries = []string{
	`anchor(S, O, purkinje_cell), src_val(S, O, amount, A)`,
	`src_obj(S, O, record)`,
	`src_obj('NCMIR', O, protein_amount), src_val('NCMIR', O, location, spine), src_val('NCMIR', O, amount, A)`,
	`anchor(S1, O1, C1), anchor(S2, O2, purkinje_cell), dm_down(has_a, purkinje_cell, C1), S1 \= S2`,
	`src_obj(S, O, record), src_val(S, O, value, V)`,
	`src_obj('SYNAPSE', O, spine_measurement), src_val('SYNAPSE', O, condition, "control")`,
	`neurotransmission(O, "rat", TN, parallel_fiber, RN, RC, NT)`,
	`src_obj('NCMIR', O, protein_amount), src_val('NCMIR', O, location, spine), anchor('NCMIR', O, spine)`,
	chaosQ,
}

// TestPlannedMatchesServedUnderPushes: every planner query gives the
// same rows planned as served, before and after a seeded run of pushes
// that add objects to every source (the extra ones included), anchor
// them where the queries look, and retract some of them again.
func TestPlannedMatchesServedUnderPushes(t *testing.T) {
	m := plannerMediator(t, 3)
	check := func(when string) {
		t.Helper()
		for _, q := range plannerQueries {
			if planned, served := plannedRows(t, m, q); planned != served {
				t.Errorf("%s, %s: planned %s, served %s", when, q, planned, served)
			}
		}
	}
	check("before the pushes")
	r := rand.New(rand.NewSource(46))
	srcs := m.Sources()
	concepts := []string{"purkinje_cell", "dendrite", "spine", "soma", "ca1"}
	classes := []string{"protein_amount", "record", "spine_measurement"}
	type push struct {
		source string
		facts  []datalog.Rule
	}
	var live []push
	for i := 0; i < 20; i++ {
		if i%3 == 2 {
			k := r.Intn(len(live))
			if _, err := m.ApplySourceDelta(live[k].source, nil, live[k].facts); err != nil {
				t.Fatal(err)
			}
			live = slices.Delete(live, k, k+1)
			continue
		}
		src := srcs[r.Intn(len(srcs))]
		s, o, c := term.Atom(src), term.Atom(fmt.Sprintf("push%d", i)), term.Atom(concepts[r.Intn(len(concepts))])
		p := push{src, []datalog.Rule{
			datalog.Fact(PredSrcObj, s, o, term.Atom(classes[r.Intn(len(classes))])),
			datalog.Fact(PredSrcVal, s, o, term.Atom("location"), c),
			datalog.Fact(PredSrcVal, s, o, term.Atom("amount"), term.Float(float64(r.Intn(100)))),
			datalog.Fact(PredSrcVal, s, o, term.Atom("value"), term.Float(float64(r.Intn(100)))),
			datalog.Fact(PredSrcVal, s, o, term.Atom("condition"), term.Str("control")),
			datalog.Fact(PredAnchor, s, o, c),
		}}
		if _, err := m.ApplySourceDelta(p.source, p.facts, nil); err != nil {
			t.Fatal(err)
		}
		live = append(live, p)
	}
	check("after 20 pushes")
}
