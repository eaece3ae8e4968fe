package domainmap

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"modelmed/internal/term"
)

// SemanticIndex records, per domain-map concept, which sources have data
// anchored there and which objects. Wrappers populate it when they
// register their conceptual models with the mediator (Section 2: "As
// part of registering a source's CM with the mediator, the wrapper
// creates a 'semantic index' of its data into the domain map").
type SemanticIndex struct {
	mu sync.RWMutex
	// byConcept: concept -> source -> object IDs.
	byConcept map[string]map[string][]term.Term
	// byContext: context key -> value key -> sources carrying that
	// context value (Section 2's context attributes).
	byContext map[string]map[string]map[string]bool
}

// NewIndex returns an empty semantic index.
func NewIndex() *SemanticIndex {
	return &SemanticIndex{
		byConcept: make(map[string]map[string][]term.Term),
		byContext: make(map[string]map[string]map[string]bool),
	}
}

// RegisterContext records that a source carries the given value for a
// context attribute.
func (ix *SemanticIndex) RegisterContext(source, key string, value term.Term) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	vk := value.Key()
	m := ix.byContext[key]
	if m == nil {
		m = make(map[string]map[string]bool)
		ix.byContext[key] = m
	}
	if m[vk] == nil {
		m[vk] = make(map[string]bool)
	}
	m[vk][source] = true
}

// HasContext reports whether a source registered the given context
// value. Sources that never registered any value for the key are
// reported as true (unknown context does not exclude a source).
func (ix *SemanticIndex) HasContext(source, key string, value term.Term) bool {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	m := ix.byContext[key]
	if m == nil {
		return true
	}
	declaredAny := false
	for _, srcs := range m {
		if srcs[source] {
			declaredAny = true
			break
		}
	}
	if !declaredAny {
		return true
	}
	return m[value.Key()][source]
}

// FilterByContext keeps the sources whose registered context admits the
// given value (sources with no registered context for the key pass).
func (ix *SemanticIndex) FilterByContext(sources []string, key string, value term.Term) []string {
	out := sources[:0:0]
	for _, s := range sources {
		if ix.HasContext(s, key, value) {
			out = append(out, s)
		}
	}
	return out
}

// Register anchors objects of a source at a concept.
func (ix *SemanticIndex) Register(source, concept string, objects ...term.Term) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	m := ix.byConcept[concept]
	if m == nil {
		m = make(map[string][]term.Term)
		ix.byConcept[concept] = m
	}
	m[source] = append(m[source], objects...)
}

// Unregister removes all anchors and context entries of a source (e.g.
// on disconnect).
func (ix *SemanticIndex) Unregister(source string) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for concept, m := range ix.byConcept {
		delete(m, source)
		if len(m) == 0 {
			delete(ix.byConcept, concept)
		}
	}
	for key, vals := range ix.byContext {
		for vk, srcs := range vals {
			delete(srcs, source)
			if len(srcs) == 0 {
				delete(vals, vk)
			}
		}
		if len(vals) == 0 {
			delete(ix.byContext, key)
		}
	}
}

// Checkpoint copies the index's current state and returns a function
// that puts it back, for a caller that changes the index over several
// steps and must undo all of them when a later step fails. Call the
// returned function at most once.
func (ix *SemanticIndex) Checkpoint() (rollback func()) {
	ix.mu.RLock()
	byConcept := make(map[string]map[string][]term.Term, len(ix.byConcept))
	for concept, m := range ix.byConcept {
		srcs := make(map[string][]term.Term, len(m))
		for source, objs := range m {
			srcs[source] = slices.Clone(objs)
		}
		byConcept[concept] = srcs
	}
	byContext := make(map[string]map[string]map[string]bool, len(ix.byContext))
	for key, vals := range ix.byContext {
		vs := make(map[string]map[string]bool, len(vals))
		for vk, srcs := range vals {
			vs[vk] = maps.Clone(srcs)
		}
		byContext[key] = vs
	}
	ix.mu.RUnlock()
	return func() {
		ix.mu.Lock()
		defer ix.mu.Unlock()
		ix.byConcept, ix.byContext = byConcept, byContext
	}
}

// SourcesAt returns the sources with data anchored exactly at concept,
// sorted.
func (ix *SemanticIndex) SourcesAt(concept string) []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	m := ix.byConcept[concept]
	out := make([]string, 0, len(m))
	for s := range m {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Objects returns the objects of source anchored at concept.
func (ix *SemanticIndex) Objects(source, concept string) []term.Term {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]term.Term(nil), ix.byConcept[concept][source]...)
}

// Concepts returns all concepts that carry anchors, sorted.
func (ix *SemanticIndex) Concepts() []string {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	out := make([]string, 0, len(ix.byConcept))
	for c := range ix.byConcept {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// AnchorCount returns the total number of (source, object) anchor
// entries.
func (ix *SemanticIndex) AnchorCount() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, m := range ix.byConcept {
		for _, objs := range m {
			n += len(objs)
		}
	}
	return n
}

// SelectSources returns the sources that have data anchored at the
// concept or (when the domain map is given) at any of its
// isa-descendants — the source-selection step of the Section 5 query
// plan: "using the domain map, select sources that have data anchored
// for the neuron/compartment pairs". A nil DomainMap restricts the match
// to the exact concept.
func (ix *SemanticIndex) SelectSources(dm *DomainMap, concept string) []string {
	concepts := []string{concept}
	if dm != nil {
		concepts = dm.Descendants(concept)
	}
	set := map[string]bool{}
	for _, c := range concepts {
		for _, s := range ix.SourcesAt(c) {
			set[s] = true
		}
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// SelectSourcesAll returns the sources that have anchors at *every* one
// of the given concepts (descendants included when dm is non-nil) — used
// when a query constrains several semantic coordinates at once, e.g. the
// neuron/compartment pairs of Section 5.
func (ix *SemanticIndex) SelectSourcesAll(dm *DomainMap, concepts []string) []string {
	if len(concepts) == 0 {
		return nil
	}
	counts := map[string]int{}
	for _, c := range concepts {
		for _, s := range ix.SelectSources(dm, c) {
			counts[s]++
		}
	}
	var out []string
	for s, n := range counts {
		if n == len(concepts) {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}
