package mediator

import (
	"strings"
	"testing"

	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// plannerMediator builds the neuro scenario plus irrelevant extra
// sources anchored away from the query concepts.
func plannerMediator(t *testing.T, extra int) *Mediator {
	t.Helper()
	m := newNeuroMediator(t, 20, 60, 20)
	for i := 0; i < extra; i++ {
		src := sources.MustSyntheticSource(srcNameT(i), int64(i), 15,
			[]string{"ca1", "dentate_gyrus"})
		w, err := wrapper.NewInMemory(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func srcNameT(i int) string { return "X" + string(rune('A'+i)) + "SRC" }

func TestPlanSourcePruning(t *testing.T) {
	m := plannerMediator(t, 4)
	// Anchor-constrained source variable: only sources with
	// purkinje_cell anchors qualify.
	p, err := m.Plan(`anchor(S, O, purkinje_cell), src_val(S, O, amount, A)`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Restricted {
		t.Fatal("plan should be restricted")
	}
	if strings.Join(p.Sources, ",") != "NCMIR,SENSELAB" {
		t.Errorf("candidate sources = %v", p.Sources)
	}
	if strings.Join(p.Concepts, ",") != "purkinje_cell" {
		t.Errorf("concepts = %v", p.Concepts)
	}
}

func TestPlanUnconstrainedSourceVariable(t *testing.T) {
	m := plannerMediator(t, 2)
	p, err := m.Plan(`src_obj(S, O, record)`)
	if err != nil {
		t.Fatal(err)
	}
	if p.Restricted {
		t.Error("unconstrained source variable must disable pruning")
	}
	if len(p.Sources) != 5 {
		t.Errorf("sources = %v", p.Sources)
	}
}

func TestPlanPushdownExtraction(t *testing.T) {
	m := plannerMediator(t, 0)
	p, err := m.Plan(`
		src_obj('NCMIR', O, protein_amount),
		src_val('NCMIR', O, location, spine),
		src_val('NCMIR', O, amount, A)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Pushdowns) != 1 {
		t.Fatalf("pushdowns = %+v", p.Pushdowns)
	}
	pd := p.Pushdowns[0]
	if pd.Source != "NCMIR" || pd.Class != "protein_amount" {
		t.Errorf("pushdown = %+v", pd)
	}
	if len(pd.Selections) != 1 || pd.Selections[0].Attr != "location" {
		t.Errorf("selections = %+v (the open amount must not be pushed)", pd.Selections)
	}
}

func TestPlannedQueryMatchesMaterialized(t *testing.T) {
	m := plannerMediator(t, 3)
	q := `
		src_obj('NCMIR', O, protein_amount),
		src_val('NCMIR', O, location, spine),
		src_val('NCMIR', O, amount, A)`
	full, err := m.Query(q, "O", "A")
	if err != nil {
		t.Fatal(err)
	}
	planned, plan, err := m.PlannedQuery(q, "O", "A")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != len(planned.Rows) {
		t.Fatalf("row counts differ: full %d vs planned %d\ntrace: %v",
			len(full.Rows), len(planned.Rows), plan.Trace)
	}
	for i := range full.Rows {
		for j := range full.Rows[i] {
			if !full.Rows[i][j].Term().Equal(planned.Rows[i][j].Term()) {
				t.Fatalf("row %d differs: %v vs %v", i, full.Rows[i], planned.Rows[i])
			}
		}
	}
	if len(plan.Pushdowns) != 1 || !plan.Pushdowns[0].Pushed {
		t.Errorf("expected an executed pushdown: %+v", plan.Pushdowns)
	}
}

func TestPlannedQueryCrossWorld(t *testing.T) {
	m := plannerMediator(t, 3)
	// The Example 1 correlation, planned: both source variables are
	// anchor-constrained, so the extra sources are skipped.
	q := `
		anchor(S1, O1, C1),
		anchor(S2, O2, purkinje_cell),
		dm_down(has_a, purkinje_cell, C1),
		S1 \= S2`
	full, err := m.Query(q, "S1", "S2", "C1")
	if err != nil {
		t.Fatal(err)
	}
	planned, plan, err := m.PlannedQuery(q, "S1", "S2", "C1")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != len(planned.Rows) {
		t.Fatalf("rows differ: %d vs %d\ntrace %v", len(full.Rows), len(planned.Rows), plan.Trace)
	}
	// The irrelevant sources must have been skipped.
	skipped := 0
	for _, step := range plan.Trace {
		if strings.Contains(step, "skipped source X") {
			skipped++
		}
	}
	if skipped != 3 {
		t.Errorf("want 3 skipped extra sources, trace: %v", plan.Trace)
	}
}

func TestPlannedQuerySoundOnUnconstrained(t *testing.T) {
	// With an unconstrained source variable the planner must not prune:
	// results match full materialization including the extra sources.
	m := plannerMediator(t, 2)
	q := `src_obj(S, O, record), src_val(S, O, value, V)`
	full, err := m.Query(q, "S", "O")
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := m.PlannedQuery(q, "S", "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) == 0 || len(full.Rows) != len(planned.Rows) {
		t.Fatalf("rows differ: %d vs %d", len(full.Rows), len(planned.Rows))
	}
}

func TestPlanScanFallbackStillFilters(t *testing.T) {
	// SYNAPSE is scan-only: the pushdown step must fall back but the
	// answer stays correct.
	m := plannerMediator(t, 0)
	q := `
		src_obj('SYNAPSE', O, spine_measurement),
		src_val('SYNAPSE', O, condition, "control")`
	full, err := m.Query(q, "O")
	if err != nil {
		t.Fatal(err)
	}
	planned, plan, err := m.PlannedQuery(q, "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != len(planned.Rows) {
		t.Fatalf("rows differ: %d vs %d", len(full.Rows), len(planned.Rows))
	}
	if len(plan.Pushdowns) != 1 || plan.Pushdowns[0].Pushed {
		t.Errorf("scan-only source should fall back: %+v", plan.Pushdowns)
	}
}

func TestPlannedQueryWithViews(t *testing.T) {
	// Views stay available during planned execution.
	m := plannerMediator(t, 2)
	q := `neurotransmission(O, "rat", TN, parallel_fiber, RN, RC, NT)`
	full, err := m.Query(q, "RN")
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := m.PlannedQuery(q, "RN")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != len(planned.Rows) {
		t.Fatalf("rows differ: %d vs %d", len(full.Rows), len(planned.Rows))
	}
}

func TestPushdownLoadedAnchors(t *testing.T) {
	// Objects loaded through a pushdown still carry their anchor facts.
	m := plannerMediator(t, 0)
	q := `
		src_obj('NCMIR', O, protein_amount),
		src_val('NCMIR', O, location, spine),
		anchor('NCMIR', O, spine)`
	planned, _, err := m.PlannedQuery(q, "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(planned.Rows) == 0 {
		t.Error("pushdown-loaded objects must keep anchors")
	}
	for _, row := range planned.Rows {
		if row[0].Term().Kind() != term.KindAtom {
			t.Errorf("odd row %v", row)
		}
	}
}
