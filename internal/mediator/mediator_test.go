package mediator

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/domainmap"
	"modelmed/internal/gcm"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// newNeuroMediator builds the full paper scenario: ANATOM domain map +
// SYNAPSE, NCMIR, SENSELAB sources + standard views.
// rowTerms copies an answer row's values out of its cells.
func rowTerms(row []datalog.Cell) []term.Term {
	out := make([]term.Term, len(row))
	for i, c := range row {
		out[i] = c.Term()
	}
	return out
}

func newNeuroMediator(t testing.TB, nSyn, nNcm, nSl int) *Mediator {
	t.Helper()
	m := New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(11, nSyn, nNcm, nSl)
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
	return m
}

func TestRegistrationEndToEnd(t *testing.T) {
	m := newNeuroMediator(t, 30, 60, 20)
	if got := m.Sources(); strings.Join(got, ",") != "NCMIR,SENSELAB,SYNAPSE" {
		t.Errorf("Sources = %v", got)
	}
	if m.Index().AnchorCount() == 0 {
		t.Error("semantic index should be populated")
	}
	// Registered models arrive over the XML wire and decode back.
	s, ok := m.Source("NCMIR")
	if !ok || s.Model == nil {
		t.Fatal("NCMIR model missing")
	}
	if len(s.Model.Objects) == 0 {
		t.Error("NCMIR objects missing after wire transfer")
	}
	if len(s.Caps) == 0 {
		t.Error("capabilities missing")
	}
}

func TestDuplicateRegistrationRejected(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	ws, _ := sources.Wrappers(1, 5, 5, 5)
	if err := m.Register(ws[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Register(ws[0]); err == nil {
		t.Error("duplicate registration should fail")
	}
}

func TestStrictAnchors(t *testing.T) {
	m := New(sources.NeuroDM(), &Options{StrictAnchors: true})
	model := sources.MustSyntheticSource("odd", 1, 5, []string{"not_a_concept"})
	w, err := wrapper.NewInMemory(model)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(w); err == nil || !strings.Contains(err.Error(), "unknown concepts") {
		t.Errorf("strict mediator should reject unknown anchors: %v", err)
	}
	// Lenient mediator adds the concept.
	m2 := New(sources.NeuroDM(), nil)
	if err := m2.Register(w); err != nil {
		t.Fatal(err)
	}
	if !m2.DomainMap().HasConcept("not_a_concept") {
		t.Error("lenient mediator should add unknown anchor concepts")
	}
}

func TestUnregisterInvalidates(t *testing.T) {
	m := newNeuroMediator(t, 5, 5, 5)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	m.Unregister("SYNAPSE")
	if got := len(m.Sources()); got != 2 {
		t.Errorf("sources after unregister = %d", got)
	}
	ans, err := m.Query(`src_obj("SYNAPSE", O, C)`, "O")
	if err == nil && len(ans.Rows) > 0 {
		t.Error("unregistered source facts should be gone")
	}
}

func TestQueryAcrossSources(t *testing.T) {
	m := newNeuroMediator(t, 30, 60, 20)
	// Loose federation (Example 1): SYNAPSE and NCMIR objects anchored
	// at concepts connected in the domain map. Find NCMIR measurements
	// at concepts inside the containment region of concepts SYNAPSE
	// measures.
	ans, err := m.Query(`
		anchor('SYNAPSE', O1, C1),
		anchor('NCMIR', O2, C2),
		dm_down(has_a, C1, C2)`, "C1", "C2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 {
		t.Error("cross-world correlation should find related concept pairs")
	}
}

func TestNeurotransmissionView(t *testing.T) {
	m := newNeuroMediator(t, 5, 5, 10)
	ans, err := m.Query(`neurotransmission(O, "rat", TN, parallel_fiber, RN, RC, NT)`, "RN", "RC")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 {
		t.Fatal("canonical rat/parallel_fiber record should be visible through the view")
	}
	found := false
	for _, r := range ans.Rows {
		if r[0].Term().Equal(term.Atom("purkinje_cell")) {
			found = true
		}
	}
	if !found {
		t.Error("purkinje_cell should be among receiving neurons")
	}
}

func TestProteinDistributionView(t *testing.T) {
	m := newNeuroMediator(t, 10, 80, 10)
	// The view is the paper's Example 4 with P=cerebellum, Z=rat,
	// Y=Ryanodine Receptor.
	ans, err := m.Query(
		`protein_distribution(cerebellum, "ryanodine_receptor", "rat", Total, N)`,
		"Total", "N")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Fatalf("rows = %v", ans.Rows)
	}
	total, _ := ans.Rows[0][0].Term().Numeric()
	n := ans.Rows[0][1].Term().IntVal()
	if n <= 0 || total <= 0 {
		t.Errorf("distribution empty: total=%v n=%v", total, n)
	}
	// Cross-check against a direct computation over the generator.
	wantTotal, wantN := directDistribution(t, m, "ryanodine_receptor", "rat", "cerebellum")
	if n != int64(wantN) || math.Abs(total-wantTotal) > 1e-6 {
		t.Errorf("view says (%.2f, %d), direct computation says (%.2f, %d)", total, n, wantTotal, wantN)
	}
}

// directDistribution recomputes the Example 4 aggregate straight from
// the registered NCMIR model, as an independent oracle.
func directDistribution(t *testing.T, m *Mediator, protein, organism, root string) (float64, int) {
	t.Helper()
	region := map[string]bool{}
	for _, c := range m.DomainMap().DownClosure("has_a", root) {
		region[c] = true
	}
	s, _ := m.Source("NCMIR")
	var total float64
	var n int
	for _, o := range s.Model.Objects {
		if o.Class != "protein_amount" {
			continue
		}
		if !o.Values["protein_name"][0].Equal(term.Str(protein)) {
			continue
		}
		if !o.Values["organism"][0].Equal(term.Str(organism)) {
			continue
		}
		loc := o.Values["location"][0].Name()
		if !region[loc] {
			continue
		}
		amt, _ := o.Values["amount"][0].Numeric()
		total += amt
		n++
	}
	return total, n
}

func TestDistributionOfMatchesView(t *testing.T) {
	m := newNeuroMediator(t, 10, 80, 10)
	d, err := m.DistributionOf("calbindin", "rat", "cerebellum")
	if err != nil {
		t.Fatal(err)
	}
	wantTotal, wantN := directDistribution(t, m, "calbindin", "rat", "cerebellum")
	got := d.Total()
	if got.Count != wantN || math.Abs(got.Sum-wantTotal) > 1e-6 {
		t.Errorf("Distribution total = %+v, want (%.2f, %d)", got, wantTotal, wantN)
	}
	// The tree renders without looping.
	if s := d.String(); !strings.Contains(s, "cerebellum") {
		t.Errorf("tree rendering = %q", s)
	}
}

func TestSection5QueryPlan(t *testing.T) {
	m := newNeuroMediator(t, 40, 120, 30)
	res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	// Step 1: pairs must include purkinje_cell receiving.
	foundPurkinje := false
	for _, p := range res.Pairs {
		if p[0] == "purkinje_cell" {
			foundPurkinje = true
		}
	}
	if !foundPurkinje {
		t.Errorf("pairs = %v, want purkinje_cell among receiving neurons", res.Pairs)
	}
	// Step 2: only NCMIR is selected — SYNAPSE has no purkinje_cell
	// anchors and SENSELAB is the driver (the paper: "in our case, only
	// NCMIR is returned").
	if strings.Join(res.SelectedSources, ",") != "NCMIR" {
		t.Errorf("selected sources = %v, want [NCMIR]", res.SelectedSources)
	}
	// Step 3: calcium-binding proteins only.
	if len(res.Proteins) == 0 {
		t.Fatal("no proteins found")
	}
	for _, p := range res.Proteins {
		if ion := sources.Proteins()[p]; ion != "calcium" {
			t.Errorf("protein %s is not calcium-binding", p)
		}
	}
	// Step 4: a root containing both purkinje_cell and its
	// compartments.
	if res.Root == "" {
		t.Fatal("no distribution root")
	}
	for _, p := range res.Pairs {
		if !m.DomainMap().Reaches("has_a", res.Root, p[0]) {
			t.Errorf("root %s does not contain %s", res.Root, p[0])
		}
	}
	if len(res.Distributions) != len(res.Proteins) {
		t.Errorf("distributions = %d, proteins = %d", len(res.Distributions), len(res.Proteins))
	}
	if len(res.Trace) < 4 {
		t.Errorf("trace = %v", res.Trace)
	}
}

func TestSection5EmptyOrganism(t *testing.T) {
	m := newNeuroMediator(t, 5, 5, 5)
	res, err := m.CalciumBindingProteinQuery("SENSELAB", "axolotl", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 0 || len(res.Distributions) != 0 {
		t.Errorf("unknown organism should produce an empty result: %+v", res)
	}
}

func TestFig3KnowledgeRegistration(t *testing.T) {
	m := newNeuroMediator(t, 5, 5, 5)
	if err := m.RegisterKnowledge(sources.Fig3Registration()...); err != nil {
		t.Fatal(err)
	}
	// The new concept participates in queries immediately.
	ans, err := m.Query(`dm_isa(my_neuron, medium_spiny_neuron)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Error("registered concept should appear in the materialized graph")
	}
	// Inferred projection via deductive closure.
	ok, err := m.Holds("dm_dc", term.Atom("proj"), term.Atom("my_neuron"), term.Atom("globus_pallidus_external"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("my_neuron should definitely project to globus_pallidus_external")
	}
}

func TestPushSelectFallback(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	// SYNAPSE is scan-only: selections must fall back to local filter.
	w, err := wrapper.NewInMemory(sources.Synapse(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	push, err := m.PushSelect("SYNAPSE", "spine_measurement",
		wrapper.Selection{Attr: "organism", Value: term.Str("rat")})
	if err != nil {
		t.Fatal(err)
	}
	if push.Pushed {
		t.Error("scan-only source cannot push selections")
	}
	for _, o := range push.Objs {
		if !o.Values["organism"][0].Equal(term.Str("rat")) {
			t.Errorf("local filter leaked %v", o.Values["organism"])
		}
	}
	if len(push.Objs) == 0 {
		t.Error("filter should find rat measurements")
	}
}

func TestForeignFormatSource(t *testing.T) {
	// A source whose CM arrives in the RDF-like format flows through the
	// plug-in path and is queryable like any other.
	m := New(sources.NeuroDM(), nil)
	w := &xmlWrapper{
		name:   "RDFSRC",
		format: "rdf",
		doc: []byte(`<rdf>
			<triple s="lab_neuron" p="rdfs_subClassOf" o="neuron"/>
			<triple s="n1" p="rdf_type" o="lab_neuron"/>
			<triple s="n1" p="label" o="my first neuron"/>
		</rdf>`),
		anchors: map[string][]term.Term{"purkinje_cell": {term.Atom("n1")}},
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	ans, err := m.Query(`src_obj('RDFSRC', O, lab_neuron)`, "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 || !ans.Rows[0][0].Term().Equal(term.Atom("n1")) {
		t.Errorf("rows = %v", ans.Rows)
	}
	// The bridge rules and FL axioms classify it globally.
	ok, err := m.Holds("instance", term.Atom("n1"), term.Atom("neuron"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("n1 should be classified as neuron via subclass bridge")
	}
}

// xmlWrapper is a minimal wrapper for foreign-format sources in tests.
type xmlWrapper struct {
	name    string
	format  string
	doc     []byte
	anchors map[string][]term.Term
}

func (w *xmlWrapper) Name() string                              { return w.name }
func (w *xmlWrapper) ExportCM() (string, []byte, error)         { return w.format, w.doc, nil }
func (w *xmlWrapper) Capabilities() []wrapper.Capability        { return nil }
func (w *xmlWrapper) Anchors() (map[string][]term.Term, error)  { return w.anchors, nil }
func (w *xmlWrapper) Contexts() (map[string][]term.Term, error) { return nil, nil }
func (w *xmlWrapper) QueryObjects(wrapper.Query) ([]gcm.Object, error) {
	return nil, nil
}
func (w *xmlWrapper) QueryTuples(wrapper.Query) ([][]term.Term, error) { return nil, nil }
func (w *xmlWrapper) QueryTemplate(string, map[string]term.Term) ([]gcm.Object, error) {
	return nil, nil
}
func (w *xmlWrapper) Stats() wrapper.Stats { return wrapper.Stats{} }

func TestDefineViewErrors(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	if err := m.DefineView("broken(X :-"); err == nil {
		t.Error("bad view text should fail")
	}
	if err := m.DefineView("v(X) :- src_obj(S, X, C)."); err != nil {
		t.Fatal(err)
	}
	if got := m.Views(); len(got) != 1 {
		t.Errorf("views = %v", got)
	}
}

func TestQueryWithNegatedGroup(t *testing.T) {
	m := newNeuroMediator(t, 10, 10, 10)
	// Concepts with NCMIR anchors but no SYNAPSE anchors.
	ans, err := m.Query(`anchor('NCMIR', O, C), not (anchor('SYNAPSE', O2, C))`, "C")
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range ans.Rows {
		c := row[0].Term().Name()
		for _, s := range m.Index().SourcesAt(c) {
			if s == "SYNAPSE" {
				t.Errorf("concept %s has SYNAPSE anchors", c)
			}
		}
	}
}

func TestMaterializeCache(t *testing.T) {
	m := newNeuroMediator(t, 10, 10, 10)
	r1, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("clean mediator should return the cached result")
	}
	if err := m.DefineView("x(O) :- src_obj(S, O, C)."); err != nil {
		t.Fatal(err)
	}
	r3, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if r3 == r1 {
		t.Error("view definition should invalidate the cache")
	}
}

func TestExecuteDMInstances(t *testing.T) {
	m := New(sources.NeuroDM(), &Options{ExecuteDMInstances: true})
	w, err := wrapper.NewInMemory(sources.NCMIR(5, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	// NCMIR protein_amount objects are not DM instances, so seed one:
	// a purkinje cell instance must get a Skolem compartment.
	if err := m.DefineView("instance(p0, purkinje_cell) :- dm_concept(purkinje_cell)."); err != nil {
		t.Fatal(err)
	}
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds("instance", term.Atom("p0"), term.Atom("neuron")) {
		t.Error("p0 should be classified as neuron")
	}
	// Some role successor must have been asserted.
	found := false
	if rel := res.Store.Rel("role/3"); rel != nil {
		for _, row := range rel.Rows() {
			if row[1].Equal(term.Atom("p0")) {
				found = true
			}
		}
	}
	if !found {
		t.Error("assertion mode should create a role successor for p0")
	}
}

func TestFormatAnswer(t *testing.T) {
	a := &Answer{Vars: []string{"X", "LongName"}, Rows: [][]datalog.Cell{
		{datalog.CellOf(term.Atom("aaa")), datalog.CellOf(term.Int(1))},
		{datalog.CellOf(term.Atom("b")), datalog.CellOf(term.Int(22))},
	}}
	s := FormatAnswer(a)
	if !strings.Contains(s, "LongName") || !strings.Contains(s, "aaa") {
		t.Errorf("FormatAnswer = %q", s)
	}
}

func TestCheckConsistencyClean(t *testing.T) {
	m := newNeuroMediator(t, 10, 20, 10)
	rep, err := m.CheckConsistency(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Errorf("generated scenario should be consistent: %s", rep)
	}
}

func TestCheckConsistencyDetectsScalarViolation(t *testing.T) {
	m := newNeuroMediator(t, 5, 5, 5)
	// Inject a second organism value for an object whose organism
	// method is declared scalar.
	if err := m.DefineView(`
		src_val('SENSELAB', sl_n0, organism, "second organism") :- dm_concept(neuron).
	`); err != nil {
		t.Fatal(err)
	}
	rep, err := m.CheckConsistency(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Consistent() {
		t.Fatal("duplicate scalar value should be detected")
	}
	if rep.PerKind["w_scalar"] == 0 {
		t.Errorf("expected w_scalar witnesses, got %s", rep)
	}
}

func TestCheckConsistencyDataCompleteness(t *testing.T) {
	// A DM-concept instance with no has_a successor triggers the
	// constraint-mode reading of neuron ⊑ ∃has_a.compartment.
	m := newNeuroMediator(t, 5, 5, 5)
	if err := m.DefineView(`
		instance(lonely, purkinje_cell) :- dm_concept(purkinje_cell).
	`); err != nil {
		t.Fatal(err)
	}
	rep, err := m.CheckConsistency(true)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PerKind["w_ex"] == 0 {
		t.Errorf("expected data-completeness witnesses, got %s", rep)
	}
	found := false
	for _, w := range rep.Witnesses {
		if w.Kind == "w_ex" && len(w.Args) == 4 && w.Args[3].Equal(term.Atom("lonely")) {
			found = true
		}
	}
	if !found {
		t.Error("lonely purkinje cell should have a w_ex witness")
	}
	// Without the DM check the base stays clean.
	rep2, err := m.CheckConsistency(false)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.PerKind["w_ex"] != 0 {
		t.Error("w_ex must only appear when checkDM is set")
	}
}

func TestConsistencyReportString(t *testing.T) {
	rep := &ConsistencyReport{PerKind: map[string]int{}}
	if got := rep.String(); !strings.Contains(got, "consistent") {
		t.Errorf("clean report = %q", got)
	}
}

func TestConcurrentQueries(t *testing.T) {
	m := newNeuroMediator(t, 10, 30, 10)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 8)
	for i := 0; i < 8; i++ {
		go func(i int) {
			var err error
			switch i % 4 {
			case 0:
				_, err = m.Query(`anchor('NCMIR', O, C)`, "O")
			case 1:
				_, _, err = m.PlannedQuery(`anchor(S, O, purkinje_cell)`, "S")
			case 2:
				_, err = m.DistributionOf("calbindin", "rat", "cerebellum")
			case 3:
				m.DomainMap().DownClosure("has_a", "cerebellum")
			}
			done <- err
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent op: %v", err)
		}
	}
}

func TestConcurrentRegistrationAndQuery(t *testing.T) {
	m := newNeuroMediator(t, 5, 10, 5)
	done := make(chan error, 4)
	go func() {
		done <- m.RegisterKnowledge(sources.Fig3Registration()...)
	}()
	for i := 0; i < 3; i++ {
		go func() {
			_, err := m.Query(`dm_concept(C)`, "C")
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Errorf("concurrent op: %v", err)
		}
	}
}

func TestExplainViewTuple(t *testing.T) {
	m := newNeuroMediator(t, 5, 5, 10)
	ans, err := m.Query(`neurotransmission(O, "rat", TN, parallel_fiber, RN, RC, NT)`, "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 {
		t.Fatal("no view tuples")
	}
	o := ans.Rows[0][0].Term()
	d, err := m.Explain("instance", o, term.Atom("neurotransmission"))
	if err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if !strings.Contains(s, "src_obj") {
		t.Errorf("provenance should reach the source fact:\n%s", s)
	}
}

func TestRegistryAccessor(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	if m.Registry() == nil || len(m.Registry().Formats()) == 0 {
		t.Error("registry should be preloaded")
	}
}

func TestDistributionConcepts(t *testing.T) {
	m := newNeuroMediator(t, 5, 30, 5)
	d, err := m.DistributionOf("calbindin", "rat", "purkinje_cell")
	if err != nil {
		t.Fatal(err)
	}
	cs := d.Concepts()
	if len(cs) == 0 || cs[0] > cs[len(cs)-1] {
		t.Errorf("Concepts = %v", cs)
	}
	if d.Nodes["purkinje_cell"] == nil {
		t.Error("root node missing")
	}
	// Total of an unknown root is zero.
	empty := &Distribution{Role: "has_a", Root: "ghost", Nodes: map[string]*DistNode{}}
	if got := empty.Total(); got.Count != 0 {
		t.Errorf("Total on missing root = %+v", got)
	}
}

func TestPlanConceptDomainIntersection(t *testing.T) {
	// Two dm_down constraints on the same variable intersect.
	m := newNeuroMediator(t, 5, 20, 5)
	p, err := m.Plan(`
		anchor(S, O, C),
		dm_down(has_a, purkinje_cell, C),
		dm_down(has_a, dendrite, C)`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Restricted {
		t.Errorf("plan should restrict; trace %v", p.Trace)
	}
}

func TestPlanIsaStarDomain(t *testing.T) {
	m := newNeuroMediator(t, 5, 20, 5)
	p, err := m.Plan(`anchor(S, O, C), dm_isa_star(C, compartment)`)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Restricted {
		t.Errorf("dm_isa_star with ground superclass should constrain; trace %v", p.Trace)
	}
}

// TestArchitectureEndToEnd exercises the whole Figure 2 flow in one
// pass: wrappers export CMs over the XML wire, the mediator registers
// them, knowledge is added at runtime, views are defined, a planned
// cross-world query runs, the federation is checked for consistency,
// and a view tuple is explained back to its source facts.
func TestArchitectureEndToEnd(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(5, 20, 60, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		// The wire really is XML.
		format, doc, err := w.ExportCM()
		if err != nil || format != "gcmx" || !strings.HasPrefix(string(doc), "<cm") {
			t.Fatalf("wire: format=%s err=%v", format, err)
		}
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.RegisterKnowledge(sources.Fig3Registration()...); err != nil {
		t.Fatal(err)
	}
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	// Planned cross-world query.
	ans, plan, err := m.PlannedQuery(
		`anchor(S, O, C), dm_down(has_a, purkinje_cell, C), src_val(S, O, amount, A)`, "S", "C")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) == 0 || !plan.Restricted {
		t.Fatalf("planned query: %d rows, restricted=%v", len(ans.Rows), plan.Restricted)
	}
	// Section 5 plan.
	s5, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	if len(s5.Distributions) == 0 {
		t.Fatal("no distributions")
	}
	// Consistency.
	rep, err := m.CheckConsistency(false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Consistent() {
		t.Fatalf("federation inconsistent: %s", rep)
	}
	// Provenance down to a source fact.
	d2, err := m.Explain("neurotransmission",
		term.Atom("sl_n0"), term.Str("rat"), term.Atom("granule_cell"), term.Atom("parallel_fiber"),
		term.Atom("purkinje_cell"), term.Atom("dendrite"), term.Str("glutamate"))
	if err != nil {
		t.Fatalf("explain view tuple: %v", err)
	}
	if !strings.Contains(d2.String(), "src_val") {
		t.Errorf("provenance should reach source facts:\n%s", d2)
	}
}

func TestContextNarrowsSourceSelection(t *testing.T) {
	// A protein source carrying only mouse data anchors at the same
	// concepts as NCMIR, but the organism=rat context excludes it from
	// the Section 5 plan.
	m := newNeuroMediator(t, 20, 60, 20)
	mouse := gcm.NewModel("MOUSELAB")
	mouse.AddClass(&gcm.Class{Name: "protein_amount", Methods: []gcm.MethodSig{
		{Name: "protein_name", Result: "string", Scalar: true},
		{Name: "location", Result: "string", Anchor: true},
		{Name: "amount", Result: "float", Scalar: true},
		{Name: "organism", Result: "string", Scalar: true, Context: true},
	}})
	for i, loc := range []string{"purkinje_cell", "dendrite", "spine"} {
		mouse.AddObject(gcm.Object{ID: term.Atom(fmt.Sprintf("ml%d", i)), Class: "protein_amount",
			Values: map[string][]term.Term{
				"protein_name": {term.Str("calbindin")},
				"location":     {term.Atom(loc)},
				"amount":       {term.Float(1)},
				"organism":     {term.Str("mouse")},
			}})
	}
	w, err := wrapper.NewInMemory(mouse)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.SelectedSources {
		if s == "MOUSELAB" {
			t.Errorf("mouse-only source selected for a rat query: %v", res.SelectedSources)
		}
	}
	// The same query for mouse selects it.
	res, err = m.CalciumBindingProteinQuery("SENSELAB", "mouse", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range res.SelectedSources {
		if s == "MOUSELAB" {
			found = true
		}
	}
	if len(res.Pairs) > 0 && !found {
		t.Errorf("mouse query should select MOUSELAB: %v (pairs %v)", res.SelectedSources, res.Pairs)
	}
}

func TestRelationTuplesThroughMediator(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	w, err := wrapper.NewInMemory(sources.AnatomDB())
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	// Tuples are visible as src_tuple facts.
	ans, err := m.Query(`src_tuple('ANATOMDB', located_in, P, W)`, "P", "W")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 2 {
		t.Fatalf("tuples = %v", ans.Rows)
	}
	// A view computing the transitive containment of the exported
	// relation.
	if err := m.DefineView(`
		loc_star(P, W) :- src_tuple(S, located_in, P, W).
		loc_star(P, W) :- loc_star(P, X), src_tuple(S, located_in, X, W).
	`); err != nil {
		t.Fatal(err)
	}
	ok, err := m.Holds("loc_star", term.Atom("st_pc1"), term.Atom("st_cbc"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("transitive containment over source tuples should hold")
	}
	// The relation schema (rel/relattr) travels through the wire too.
	ok, err = m.Holds("rel", term.Atom("located_in"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("relation schema fact missing")
	}
}

func TestCallTemplate(t *testing.T) {
	m := New(sources.NeuroDM(), nil)
	w, err := wrapper.NewInMemory(sources.NCMIR(3, 20))
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterTemplate("amounts_at", []string{"location"},
		func(model *gcm.Model, params map[string]term.Term) ([]gcm.Object, error) {
			var out []gcm.Object
			for _, o := range model.Objects {
				for _, v := range o.Values["location"] {
					if v.Equal(params["location"]) {
						out = append(out, o)
					}
				}
			}
			return out, nil
		})
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	objs, err := m.CallTemplate("NCMIR", "amounts_at", map[string]term.Term{
		"location": term.Atom("spine")})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		if !o.Values["location"][0].Equal(term.Atom("spine")) {
			t.Errorf("template returned wrong object %v", o.ID)
		}
	}
	if _, err := m.CallTemplate("GHOST", "x", nil); err == nil {
		t.Error("unknown source should fail")
	}
}

func TestDerivedAttributeThroughMediator(t *testing.T) {
	// A derived attribute travels over the XML wire and computes at the
	// mediator (the paper's footnote 4).
	model := gcm.NewModel("DERIVED")
	model.AddClass(&gcm.Class{Name: "measurement", Methods: []gcm.MethodSig{
		{Name: "location", Result: "string", Anchor: true},
		{Name: "density", Result: "float", Scalar: true},
		{Name: "density_class", Result: "string",
			Derivation: `
				methodinst(O, density_class, high) :- src_val(S, O, density, D), D >= 2.0.
				methodinst(O, density_class, low) :- src_val(S, O, density, D), D < 2.0.
			`},
	}})
	model.AddObject(gcm.Object{ID: term.Atom("d1"), Class: "measurement",
		Values: map[string][]term.Term{
			"location": {term.Atom("spine")},
			"density":  {term.Float(2.5)},
		}})
	w, err := wrapper.NewInMemory(model)
	if err != nil {
		t.Fatal(err)
	}
	m := New(sources.NeuroDM(), nil)
	if err := m.Register(w); err != nil {
		t.Fatal(err)
	}
	ok, err := m.Holds("methodinst", term.Atom("d1"), term.Atom("density_class"), term.Atom("high"))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("derived attribute should compute at the mediator")
	}
}

// TestTutorialFleetScenario mirrors TUTORIAL.md end to end so the
// documented snippets stay truthful.
func TestTutorialFleetScenario(t *testing.T) {
	dm, err := domainmapFromText(t, `
		truck sub vehicle.
		van sub vehicle.
		vehicle sub exists has_a.engine.
		vehicle sub exists has_a.brake_system.
		engine sub exists has_a.engine_part.
		turbocharger sub engine_part.
		injector sub engine_part.
		brake_system sub exists has_a.brake_pad.
		monitored_part eqv (engine_part and exists watched_by.sensor).
	`)
	if err != nil {
		t.Fatal(err)
	}
	med := New(dm, nil)

	shop := gcm.NewModel("SHOP")
	shop.AddClass(&gcm.Class{Name: "repair", Methods: []gcm.MethodSig{
		{Name: "component", Result: "string", Anchor: true},
		{Name: "site", Result: "string", Context: true},
		{Name: "cost", Result: "integer", Scalar: true},
		{Name: "cost_band", Result: "string", Derivation: `
			methodinst(O, cost_band, high) :- src_val(S, O, cost, C), C >= 1000.
			methodinst(O, cost_band, low)  :- src_val(S, O, cost, C), C < 1000.
		`},
	}})
	for i, r := range []struct {
		comp string
		cost int64
	}{{"turbocharger", 1200}, {"injector", 300}, {"brake_pad", 450}} {
		shop.AddObject(gcm.Object{ID: term.Atom(fmt.Sprintf("rep%d", i)), Class: "repair",
			Values: map[string][]term.Term{
				"component": {term.Atom(r.comp)},
				"site":      {term.Str("north")},
				"cost":      {term.Int(r.cost)},
			}})
	}
	w, err := wrapper.NewInMemory(shop,
		wrapper.Capability{Target: "repair", Kind: wrapper.CapClassSelect,
			Bindable: []string{"component", "site"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := med.Register(w); err != nil {
		t.Fatal(err)
	}
	axioms, err := parseAxiomsT(`retrofit_kit sub engine_part and exists watched_by.sensor.`)
	if err != nil {
		t.Fatal(err)
	}
	if err := med.RegisterKnowledge(axioms...); err != nil {
		t.Fatal(err)
	}
	if err := med.DefineView(`
		engine_cost(Assembly, Total) :-
			dm_concept(Assembly),
			Total = sum{C[Assembly] per O;
				dm_down(has_a, Assembly, Part),
				anchor(Src, O, Part),
				src_val(Src, O, cost, C)}.
	`); err != nil {
		t.Fatal(err)
	}
	// engine region contains turbocharger+injector but not brake_pad.
	ans, err := med.Query(`engine_cost(engine, T)`, "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 || !ans.Rows[0][0].Term().Equal(term.Int(1500)) {
		t.Fatalf("engine_cost = %v, want 1500", ans.Rows)
	}
	// vehicle region contains all three.
	ans, err = med.Query(`engine_cost(vehicle, T)`, "T")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 || !ans.Rows[0][0].Term().Equal(term.Int(1950)) {
		t.Fatalf("vehicle cost = %v, want 1950", ans.Rows)
	}
	// The derived attribute works.
	ok, err := med.Holds("methodinst", term.Atom("rep0"), term.Atom("cost_band"), term.Atom("high"))
	if err != nil || !ok {
		t.Errorf("cost_band derivation: %v %v", ok, err)
	}
	// The planned path agrees with the full one.
	q := `anchor(S, O, C), dm_down(has_a, engine, C), src_val(S, O, cost, Cost)`
	full, err := med.Query(q, "O", "Cost")
	if err != nil {
		t.Fatal(err)
	}
	planned, _, err := med.PlannedQuery(q, "O", "Cost")
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Rows) != 2 || len(planned.Rows) != 2 {
		t.Fatalf("rows: full %d planned %d", len(full.Rows), len(planned.Rows))
	}
	// lub of engine and brake parts: trucks and vans both inherit the
	// vehicle's parts, so they are the *minimal* containers — more
	// specific than vehicle itself.
	lub := dm.LUB("has_a", []string{"turbocharger", "brake_pad"})
	if strings.Join(lub, ",") != "truck,van" {
		t.Errorf("lub = %v, want [truck van]", lub)
	}
	rep, err := med.CheckConsistency(false)
	if err != nil || !rep.Consistent() {
		t.Errorf("consistency: %v %v", rep, err)
	}
}

func domainmapFromText(t *testing.T, src string) (*domainmap.DomainMap, error) {
	t.Helper()
	return domainmap.FromText("fleet", src)
}

func parseAxiomsT(src string) ([]dl.Axiom, error) { return dl.ParseAxioms(src) }

func TestDistributionDOT(t *testing.T) {
	m := newNeuroMediator(t, 5, 40, 5)
	d, err := m.DistributionOf("calbindin", "rat", "cerebellum")
	if err != nil {
		t.Fatal(err)
	}
	dot := d.DOT()
	for _, want := range []string{"digraph", "cerebellum", "subtree"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
	if !strings.Contains(dot, "lightgoldenrod") {
		t.Error("nodes with direct data should be highlighted")
	}
}

// TestNegatedQueryBesideNegatedView: every parse names its negated
// groups $not1, $not2, …; a query's must not be read as a view's.
func TestNegatedQueryBesideNegatedView(t *testing.T) {
	m := newNeuroMediator(t, 6, 4, 4)
	if err := m.DefineView(`ncm_rest(O, C) :- src_obj('NCMIR', O, C), not (src_obj('NCMIR', O, C), C = protein).`); err != nil {
		t.Fatal(err)
	}
	const q = `src_obj('NCMIR', O, C), not (src_obj('NCMIR', O, C), C = protein_amount)`
	for _, route := range []struct {
		name string
		run  func() (*Answer, error)
	}{
		{"query", func() (*Answer, error) { return m.Query(q) }},
		{"planned", func() (*Answer, error) {
			ans, _, err := m.PlannedQuery(q)
			return ans, err
		}},
		{"over facts", func() (*Answer, error) {
			dumps, err := m.FactsDump(context.Background())
			if err != nil {
				return nil, err
			}
			return m.QueryOverFacts(context.Background(), dumps, q, nil)
		}},
	} {
		ans, err := route.run()
		if err != nil {
			t.Fatalf("%s: %v", route.name, err)
		}
		if len(ans.Rows) != 7 {
			t.Errorf("%s: negated query beside a negated view: %d rows, want 7", route.name, len(ans.Rows))
		}
	}
}

// TestConcurrentNegatedQueries: concurrent queries with different
// negated groups each get their own answer.
func TestConcurrentNegatedQueries(t *testing.T) {
	m := newNeuroMediator(t, 6, 4, 4)
	queries := []string{
		`src_obj('SYNAPSE', O, C), not (src_val('SYNAPSE', O, location, L), L = spine)`,
		`src_obj('SYNAPSE', O, C), not (src_val('SYNAPSE', O, location, L), L = dendrite)`,
	}
	want := make([]int, len(queries))
	for i, q := range queries {
		ans, err := m.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = len(ans.Rows)
	}
	if want[0] == want[1] {
		t.Fatalf("the two queries should differ, both give %d rows", want[0])
	}
	var wg sync.WaitGroup
	var wrong atomic.Int64
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				k := (g + i) % len(queries)
				ans, err := m.Query(queries[k])
				if err != nil {
					t.Error(err)
					return
				}
				if len(ans.Rows) != want[k] {
					wrong.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := wrong.Load(); n > 0 {
		t.Errorf("%d of 200 concurrent answers were another query's", n)
	}
}
