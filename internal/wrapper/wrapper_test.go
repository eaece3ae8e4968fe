package wrapper

import (
	"os"
	"strings"
	"testing"

	"modelmed/internal/gcm"
	"modelmed/internal/term"
	"modelmed/internal/xmlio"
)

func a(s string) term.Term { return term.Atom(s) }

func testModel() *gcm.Model {
	m := gcm.NewModel("SYNAPSE")
	m.AddClass(&gcm.Class{Name: "compartment"})
	m.AddClass(&gcm.Class{Name: "neuron", Methods: []gcm.MethodSig{
		{Name: "organism", Result: "string"},
		{Name: "location", Result: "string", Anchor: true},
	}})
	m.AddClass(&gcm.Class{Name: "spiny_neuron", Super: []string{"neuron"}})
	m.AddRelation(&gcm.Relation{Name: "has", Attrs: []gcm.RelAttr{
		{Name: "whole", Class: "neuron"},
		{Name: "part", Class: "compartment"},
	}})
	m.AddObject(gcm.Object{ID: a("n1"), Class: "neuron", Values: map[string][]term.Term{
		"organism": {term.Str("rat")}, "location": {a("pyramidal_cell")}}})
	m.AddObject(gcm.Object{ID: a("n2"), Class: "spiny_neuron", Values: map[string][]term.Term{
		"organism": {term.Str("mouse")}, "location": {a("purkinje_cell")}}})
	m.AddTuple("has", a("n1"), a("c1"))
	m.AddTuple("has", a("n2"), a("c2"))
	return m
}

func TestDefaultCapabilities(t *testing.T) {
	w, err := NewInMemory(testModel())
	if err != nil {
		t.Fatal(err)
	}
	caps := w.Capabilities()
	// 3 classes + 1 relation.
	if len(caps) != 4 {
		t.Errorf("caps = %v", caps)
	}
	for _, c := range caps {
		if c.Kind != CapClassScan && c.Kind != CapRelScan {
			t.Errorf("default capability should be a scan: %v", c)
		}
	}
}

func TestQueryObjectsScan(t *testing.T) {
	w, _ := NewInMemory(testModel())
	objs, err := w.QueryObjects(Query{Target: "neuron"})
	if err != nil {
		t.Fatal(err)
	}
	// Subclass instances are included in a class scan.
	if len(objs) != 2 {
		t.Errorf("objs = %v", objs)
	}
	objs, err = w.QueryObjects(Query{Target: "spiny_neuron"})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || !objs[0].ID.Equal(a("n2")) {
		t.Errorf("spiny objs = %v", objs)
	}
}

func TestSelectionRequiresCapability(t *testing.T) {
	w, _ := NewInMemory(testModel())
	_, err := w.QueryObjects(Query{Target: "neuron",
		Selections: []Selection{{Attr: "organism", Value: term.Str("rat")}}})
	if err == nil || !strings.Contains(err.Error(), "no capability") {
		t.Errorf("scan-only wrapper must reject selections: %v", err)
	}
}

func TestSelectionPushdown(t *testing.T) {
	w, _ := NewInMemory(testModel(),
		Capability{Target: "neuron", Kind: CapClassSelect, Bindable: []string{"organism", "location"}},
	)
	objs, err := w.QueryObjects(Query{Target: "neuron",
		Selections: []Selection{{Attr: "organism", Value: term.Str("rat")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || !objs[0].ID.Equal(a("n1")) {
		t.Errorf("objs = %v", objs)
	}
	// Selection on a non-bindable attribute still rejected.
	if _, err := w.QueryObjects(Query{Target: "neuron",
		Selections: []Selection{{Attr: "ghost", Value: a("x")}}}); err == nil {
		t.Error("non-bindable selection should be rejected")
	}
	// A select capability also covers plain scans.
	if _, err := w.QueryObjects(Query{Target: "neuron"}); err != nil {
		t.Errorf("select capability should allow scans: %v", err)
	}
}

func TestCovers(t *testing.T) {
	caps := []Capability{
		{Target: "neuron", Kind: CapClassScan},
		{Target: "neuron", Kind: CapClassSelect, Bindable: []string{"organism", "location"}},
		{Target: "has", Kind: CapRelScan},
	}
	sel := func(attrs ...string) []Selection {
		var out []Selection
		for _, at := range attrs {
			out = append(out, Selection{Attr: at, Value: a("x")})
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		q     Query
		class bool
		want  bool
	}{
		{"scan with no selections", Query{Target: "neuron"}, true, true},
		{"select, every attribute bindable", Query{Target: "neuron", Selections: sel("organism", "location")}, true, true},
		{"select, one attribute unbindable", Query{Target: "neuron", Selections: sel("organism", "ghost")}, true, false},
		{"class query against a relation capability", Query{Target: "has"}, true, false},
		{"relation query against a relation capability", Query{Target: "has"}, false, true},
		{"unknown target", Query{Target: "glia"}, true, false},
	} {
		if got := Covers(caps, tc.q, tc.class); got != tc.want {
			t.Errorf("%s: Covers = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestQueryTuples(t *testing.T) {
	w, _ := NewInMemory(testModel(),
		Capability{Target: "has", Kind: CapRelSelect, Bindable: []string{"whole"}})
	tps, err := w.QueryTuples(Query{Target: "has"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tps) != 2 {
		t.Errorf("tuples = %v", tps)
	}
	tps, err = w.QueryTuples(Query{Target: "has",
		Selections: []Selection{{Attr: "whole", Value: a("n1")}}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tps) != 1 || !tps[0][1].Equal(a("c1")) {
		t.Errorf("selected tuples = %v", tps)
	}
}

func TestAnchors(t *testing.T) {
	w, _ := NewInMemory(testModel())
	anchors, err := w.Anchors()
	if err != nil {
		t.Fatal(err)
	}
	if len(anchors["pyramidal_cell"]) != 1 || len(anchors["purkinje_cell"]) != 1 {
		t.Errorf("anchors = %v", anchors)
	}
}

func TestExportCMWire(t *testing.T) {
	w, _ := NewInMemory(testModel())
	format, doc, err := w.ExportCM()
	if err != nil {
		t.Fatal(err)
	}
	if format != "gcmx" {
		t.Errorf("format = %s", format)
	}
	m2, err := xmlio.DecodeModel(doc)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Name != "SYNAPSE" || len(m2.Objects) != 2 {
		t.Errorf("wire round trip lost data: %s %d", m2.Name, len(m2.Objects))
	}
}

func TestStats(t *testing.T) {
	w, _ := NewInMemory(testModel())
	if _, err := w.QueryObjects(Query{Target: "neuron"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.QueryTuples(Query{Target: "has"}); err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	if s.Queries != 2 || s.ObjectsReturned != 2 || s.TuplesReturned != 2 {
		t.Errorf("stats = %+v", s)
	}
}

func TestInvalidModelRejected(t *testing.T) {
	m := gcm.NewModel("bad")
	m.AddClass(&gcm.Class{Name: "c", Super: []string{"ghost"}})
	if _, err := NewInMemory(m); err == nil {
		t.Error("invalid model should be rejected at wrap time")
	}
}

func TestCapKindString(t *testing.T) {
	if CapClassScan.String() != "class-scan" || CapRelSelect.String() != "rel-select" {
		t.Error("CapKind strings wrong")
	}
}

func TestQueryTemplate(t *testing.T) {
	w, _ := NewInMemory(testModel())
	w.RegisterTemplate("by_organism", []string{"organism"},
		func(m *gcm.Model, params map[string]term.Term) ([]gcm.Object, error) {
			var out []gcm.Object
			for _, o := range m.Objects {
				for _, v := range o.Values["organism"] {
					if v.Equal(params["organism"]) {
						out = append(out, o)
					}
				}
			}
			return out, nil
		})
	// Declared in capabilities.
	found := false
	for _, c := range w.Capabilities() {
		if c.Kind == CapTemplate && c.Target == "by_organism" {
			found = true
		}
	}
	if !found {
		t.Error("template capability should be declared")
	}
	objs, err := w.QueryTemplate("by_organism", map[string]term.Term{"organism": term.Str("rat")})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 1 || !objs[0].ID.Equal(a("n1")) {
		t.Errorf("objs = %v", objs)
	}
	// Unknown template and unknown parameter are rejected.
	if _, err := w.QueryTemplate("ghost", nil); err == nil {
		t.Error("unknown template should fail")
	}
	if _, err := w.QueryTemplate("by_organism", map[string]term.Term{"bogus": a("x")}); err == nil {
		t.Error("unknown parameter should fail")
	}
	if w.Stats().Queries == 0 {
		t.Error("template calls should count in stats")
	}
}

func TestFromGCMXRoundTrip(t *testing.T) {
	doc, err := xmlio.EncodeModel(testModel())
	if err != nil {
		t.Fatal(err)
	}
	w, err := FromGCMX(doc)
	if err != nil {
		t.Fatal(err)
	}
	objs, err := w.QueryObjects(Query{Target: "neuron"})
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 2 {
		t.Errorf("objs = %d", len(objs))
	}
	if _, err := FromGCMX([]byte("<bogus/>")); err == nil {
		t.Error("invalid document should be rejected")
	}
}

func TestFromGCMXFile(t *testing.T) {
	doc, err := xmlio.EncodeModel(testModel())
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/src.gcmx"
	if err := os.WriteFile(path, doc, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := FromGCMXFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "SYNAPSE" {
		t.Errorf("name = %s", w.Name())
	}
	if _, err := FromGCMXFile(path + ".missing"); err == nil {
		t.Error("missing file should error")
	}
}
