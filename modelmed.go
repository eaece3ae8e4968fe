// Package modelmed is a Go implementation of model-based mediation with
// domain maps, after Ludäscher, Gupta and Martone, "Model-Based
// Mediation with Domain Maps" (ICDE 2001).
//
// A model-based mediator integrates data sources at the level of
// conceptual models rather than semistructured (XML) structure: wrapped
// sources export classes, associations, constraints and query
// capabilities; a domain map — a semantic net of concepts and roles
// with description-logic semantics — relates data from "multiple
// worlds"; and integrated views are logic rules that navigate the
// domain map's graph operations (transitive and deductive closures,
// least upper bounds, downward closures).
//
// This package is the public facade. The key entry points:
//
//	dm  := modelmed.NewDomainMap("ANATOM")            // or sources.NeuroDM()
//	med := modelmed.NewMediator(dm, nil)
//	w, _ := modelmed.WrapModel(model)                 // wrap a conceptual model
//	med.Register(w)                                   // XML wire + anchor facts
//	med.DefineView(`v(X) :- src_obj(S, X, C).`)       // integrated views
//	ans, _ := med.Query(`v(X)`)                       // conceptual-level queries
//
// The subsystems live in internal packages: the Datalog engine with
// well-founded negation (internal/datalog), the F-logic layer of the
// paper's Table 1 (internal/flogic), the generic conceptual model and
// its constraint library (internal/gcm), description logic
// (internal/dl), domain maps (internal/domainmap), the XML wire and CM
// plug-ins (internal/xmlio), wrappers (internal/wrapper), the mediator
// (internal/mediator) and the structural baseline (internal/baseline).
package modelmed

import (
	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/domainmap"
	"modelmed/internal/gcm"
	"modelmed/internal/mediator"
	"modelmed/internal/wrapper"
)

// Re-exported core types.
type (
	// Mediator is the model-based mediator (the paper's contribution).
	Mediator = mediator.Mediator
	// MediatorOptions configure a mediator.
	MediatorOptions = mediator.Options
	// Answer is a query result.
	Answer = mediator.Answer
	// Distribution is the Example 4 recursive-aggregate result.
	Distribution = mediator.Distribution
	// Section5Result traces the Section 5 query plan.
	Section5Result = mediator.Section5Result
	// QueryPlan is an analyzed mediated query (source pruning +
	// pushdowns).
	QueryPlan = mediator.QueryPlan
	// ConsistencyReport is the outcome of federation-wide integrity
	// checking.
	ConsistencyReport = mediator.ConsistencyReport

	// DomainMap is a concept/role graph with DL semantics.
	DomainMap = domainmap.DomainMap
	// SemanticIndex maps concepts to the sources anchored there: a
	// read-only view over the sources' anchor/3 facts.
	SemanticIndex = domainmap.SemanticIndex

	// Model is a conceptual model CM(S).
	Model = gcm.Model
	// Class declares an entity type.
	Class = gcm.Class
	// MethodSig declares a method (attribute) of a class.
	MethodSig = gcm.MethodSig
	// Relation declares an n-ary association.
	Relation = gcm.Relation
	// RelAttr is one association role.
	RelAttr = gcm.RelAttr
	// Object is a class instance.
	Object = gcm.Object

	// Wrapper is the mediator-facing source interface.
	Wrapper = wrapper.Wrapper
	// Capability is a wrapper query template (binding pattern).
	Capability = wrapper.Capability
	// Selection is a pushed-down attribute filter.
	Selection = wrapper.Selection

	// Axiom is a description-logic statement (Definition 1).
	Axiom = dl.Axiom
	// Concept is a DL concept expression.
	Concept = dl.Concept
	// TBox is a subsumption checker over DL axioms.
	TBox = dl.TBox
	// Taxonomy is a classified concept hierarchy.
	Taxonomy = dl.Taxonomy

	// Derivation is a provenance tree for a derived fact.
	Derivation = datalog.Derivation
)

// NewMediator returns a mediator over a domain map.
func NewMediator(dm *DomainMap, opts *MediatorOptions) *Mediator {
	return mediator.New(dm, opts)
}

// NewDomainMap returns an empty domain map.
func NewDomainMap(name string) *DomainMap { return domainmap.New(name) }

// DomainMapFromText builds a domain map from DL axioms in textual
// syntax (e.g. "neuron sub exists has_a.compartment.").
func DomainMapFromText(name, src string) (*DomainMap, error) {
	return domainmap.FromText(name, src)
}

// ParseAxioms parses DL axioms in textual syntax.
func ParseAxioms(src string) ([]Axiom, error) { return dl.ParseAxioms(src) }

// NewModel returns an empty conceptual model.
func NewModel(name string) *Model { return gcm.NewModel(name) }

// WrapModel wraps an in-memory conceptual model as a source, deriving
// minimal scan capabilities when none are given.
func WrapModel(m *Model, caps ...Capability) (Wrapper, error) {
	return wrapper.NewInMemory(m, caps...)
}

// DL constructors, re-exported for building domain maps.
var (
	// C names a concept.
	C = dl.C
	// ExistsR builds an existential role restriction ∃r.C.
	ExistsR = dl.ExistsR
	// ForallR builds a universal role restriction ∀r.C.
	ForallR = dl.ForallR
	// AndOf conjoins concepts.
	AndOf = dl.AndOf
	// OrOf disjoins concepts.
	OrOf = dl.OrOf
	// Sub builds the inclusion axiom C ⊑ D.
	Sub = dl.Sub
	// Equiv builds the equivalence axiom C ≡ D.
	Equiv = dl.Equiv
)
