package mediator

import (
	"strings"
	"testing"

	"modelmed/internal/wrapper"
)

// The HTTP serving layer feeds Plan straight from untrusted
// client input; every malformed shape below must come back as an error,
// never a panic and never a silently empty answer.

func TestPlanRejectsUnknownPredicate(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	for _, q := range []string{
		"nonexistent_view(X)",
		"src_obj('NCMIR', O, C), bogus(O)",
		"N = count{X; phantom(X)}",
	} {
		_, err := m.Plan(q)
		if err == nil {
			t.Errorf("Plan(%q) accepted a query outside the mediated vocabulary", q)
			continue
		}
		if !strings.Contains(err.Error(), "unknown predicate") {
			t.Errorf("Plan(%q) error = %v, want unknown-predicate error", q, err)
		}
	}
}

func TestPlanAcceptsViewsAndQueryLocalRules(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	// Registered standard view heads pass the vocabulary gate.
	if _, err := m.Plan("protein_distribution(P, C, A)"); err != nil {
		t.Fatalf("registered view rejected: %v", err)
	}
	if err := m.DefineView("my_view(O) :- src_obj('NCMIR', O, protein)."); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Plan("my_view(O)"); err != nil {
		t.Fatalf("user view rejected: %v", err)
	}
}

func TestPlanRejectsEmptyAndMalformedQueries(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	for _, q := range []string{"", "   ", "src_obj(", ":-", "?!"} {
		if _, err := m.Plan(q); err == nil {
			t.Errorf("Plan(%q) should fail", q)
		}
	}
}

// A planned query whose pushdown targets a source that is not
// registered (e.g. the client guessed a name, or the source was
// unregistered) must fail cleanly.
func TestExecutePlanUnregisteredSource(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	if _, _, err := m.PlannedQuery("src_obj('GHOST', O, protein), src_val('GHOST', O, name, n)", "O"); err == nil {
		t.Fatal("PlannedQuery over an unregistered source must error")
	}
	// Same once the source is gone.
	m.Unregister("SYNAPSE")
	if _, _, err := m.PlannedQuery("src_obj('SYNAPSE', O, experiment), src_val('SYNAPSE', O, n_id, x)", "O"); err == nil {
		t.Fatal("PlannedQuery after Unregister must error")
	}
}

// A pushdown step with no selections (empty pushdown) degenerates to a
// class scan and must execute, not panic.
func TestExecutePlanEmptyPushdown(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	ans, _, err := m.PlannedQuery("src_obj('NCMIR', O, protein)", "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 {
		t.Fatal("scan-shaped pushdown returned no rows")
	}
}

// PushSelect against unknown sources/classes is the remaining raw
// surface the daemon exposes; both must error.
func TestPushSelectErrors(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	if _, err := m.PushSelect("GHOST", "protein"); err == nil {
		t.Fatal("PushSelect on unknown source must error")
	}
	if _, err := m.PushSelect("NCMIR", "no_such_class",
		wrapper.Selection{}); err == nil {
		t.Fatal("PushSelect on unknown class must error")
	}
}
