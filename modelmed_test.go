package modelmed_test

import (
	"strings"
	"testing"

	"modelmed"
	"modelmed/internal/term"
)

// TestPublicAPIWalkthrough exercises the facade the way the README
// documents it: build a domain map, wrap sources, register, view,
// query.
func TestPublicAPIWalkthrough(t *testing.T) {
	dm, err := modelmed.DomainMapFromText("garage", `
		car sub exists has_a.engine.
		engine sub exists has_a.engine_part.
		turbocharger sub engine_part.
	`)
	if err != nil {
		t.Fatal(err)
	}
	med := modelmed.NewMediator(dm, nil)

	repairs := modelmed.NewModel("WORKSHOP")
	repairs.AddClass(&modelmed.Class{Name: "repair", Methods: []modelmed.MethodSig{
		{Name: "component", Result: "string", Anchor: true},
		{Name: "cost", Result: "integer", Scalar: true},
	}})
	repairs.AddObject(modelmed.Object{ID: term.Atom("r1"), Class: "repair",
		Values: map[string][]term.Term{
			"component": {term.Atom("turbocharger")},
			"cost":      {term.Int(1200)},
		}})
	w, err := modelmed.WrapModel(repairs)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Register(w); err != nil {
		t.Fatal(err)
	}
	if err := med.DefineView(`expensive(O) :- src_val(S, O, cost, C), C > 1000.`); err != nil {
		t.Fatal(err)
	}
	ans, err := med.Query(`expensive(O), anchor('WORKSHOP', O, Comp), dm_down(has_a, engine, Comp)`, "O", "Comp")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 || !ans.Rows[0][1].Term().Equal(term.Atom("turbocharger")) {
		t.Fatalf("rows = %v", ans.Rows)
	}
	// Planned path gives the same result.
	planned, plan, err := med.PlannedQuery(`expensive(O), anchor('WORKSHOP', O, Comp), dm_down(has_a, engine, Comp)`, "O", "Comp")
	if err != nil {
		t.Fatal(err)
	}
	if len(planned.Rows) != 1 {
		t.Fatalf("planned rows = %v\ntrace %v", planned.Rows, plan.Trace)
	}
	// Knowledge registration via the DL constructors.
	if err := med.RegisterKnowledge(modelmed.Sub("supercharger", modelmed.C("engine_part"))); err != nil {
		t.Fatal(err)
	}
	if !dm.HasConcept("supercharger") {
		t.Error("registered concept missing")
	}
	// Consistency and provenance round out the API.
	rep, err := med.CheckConsistency(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Errorf("report = %s", rep)
	}
	d, err := med.Explain("expensive", term.Atom("r1"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.String(), "src_val") {
		t.Errorf("provenance:\n%s", d)
	}
}

func TestPublicAxiomParsing(t *testing.T) {
	axs, err := modelmed.ParseAxioms("a sub exists r.(b or c).")
	if err != nil || len(axs) != 1 {
		t.Fatalf("axs = %v, err = %v", axs, err)
	}
}
