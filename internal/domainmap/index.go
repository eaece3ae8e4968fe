package domainmap

import (
	"slices"
	"sort"

	"modelmed/internal/datalog"
	"modelmed/internal/term"
)

// SemanticIndex records, per domain-map concept, which sources have data
// anchored there and which objects (Section 2: "As part of registering a
// source's CM with the mediator, the wrapper creates a 'semantic index'
// of its data into the domain map"). It is a read-only view that stores
// nothing: every question is answered from the anchor(Source, Obj,
// Concept) facts and the context values its walk yields, so it cannot
// fall out of step with them.
type SemanticIndex struct {
	walk func(yield func(SourceAnchors) bool)
}

// SourceAnchors is what the index reads of one source.
type SourceAnchors struct {
	Source string
	// Anchors holds the source's anchor(Source, Obj, Concept) facts; nil
	// when it has none.
	Anchors *datalog.Relation
	// Contexts maps a context attribute to the values the source carries
	// for it (Section 2's context attributes).
	Contexts map[string][]term.Term
}

// NewIndex returns the index over the sources walk yields, each once,
// until yield returns false. The walk may hold a lock while it runs:
// yield never calls out of the index.
func NewIndex(walk func(yield func(SourceAnchors) bool)) *SemanticIndex {
	return &SemanticIndex{walk: walk}
}

// HasContext reports whether a source registered the given context
// value. Sources that never registered any value for the key are
// reported as true (unknown context does not exclude a source).
func (ix *SemanticIndex) HasContext(source, key string, value term.Term) bool {
	return len(ix.FilterByContext([]string{source}, key, value)) == 1
}

// FilterByContext keeps the sources whose registered context admits the
// given value (sources with no registered context for the key pass).
func (ix *SemanticIndex) FilterByContext(sources []string, key string, value term.Term) []string {
	excluded := map[string]bool{}
	ix.walk(func(sa SourceAnchors) bool {
		if vals := sa.Contexts[key]; len(vals) > 0 && !slices.ContainsFunc(vals, value.Equal) {
			excluded[sa.Source] = true
		}
		return true
	})
	out := sources[:0:0]
	for _, s := range sources {
		if !excluded[s] {
			out = append(out, s)
		}
	}
	return out
}

// SourcesAt returns the sources with data anchored exactly at concept,
// sorted.
func (ix *SemanticIndex) SourcesAt(concept string) []string {
	return ix.sourcesAtAny([]string{concept})
}

// sourcesAtAny returns the sources with data anchored at any of the
// concepts, sorted.
func (ix *SemanticIndex) sourcesAtAny(concepts []string) []string {
	cs := make([]term.Term, len(concepts))
	for i, c := range concepts {
		cs[i] = term.Atom(c)
	}
	out := []string{}
	ix.walk(func(sa SourceAnchors) bool {
		if sa.Anchors != nil && slices.ContainsFunc(cs, func(c term.Term) bool { return sa.Anchors.Has(2, c) }) {
			out = append(out, sa.Source)
		}
		return true
	})
	sort.Strings(out)
	return out
}

// Objects returns the objects of source anchored at concept.
func (ix *SemanticIndex) Objects(source, concept string) []term.Term {
	var out []term.Term
	ix.walk(func(sa SourceAnchors) bool {
		if sa.Source != source {
			return true
		}
		if sa.Anchors != nil {
			for _, row := range sa.Anchors.Select(2, term.Atom(concept)) {
				out = append(out, row[1])
			}
		}
		return false
	})
	return out
}

// Concepts returns all concepts that carry anchors, sorted.
func (ix *SemanticIndex) Concepts() []string {
	set := map[string]bool{}
	ix.walk(func(sa SourceAnchors) bool {
		if sa.Anchors != nil {
			for _, row := range sa.Anchors.Rows() {
				set[row[2].Name()] = true
			}
		}
		return true
	})
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// AnchorCount returns the total number of (source, object, concept)
// anchor entries.
func (ix *SemanticIndex) AnchorCount() int {
	n := 0
	ix.walk(func(sa SourceAnchors) bool {
		if sa.Anchors != nil {
			n += sa.Anchors.Len()
		}
		return true
	})
	return n
}

// SelectSources returns the sources that have data anchored at the
// concept or (when the domain map is given) at any of its
// isa-descendants — the source-selection step of the Section 5 query
// plan: "using the domain map, select sources that have data anchored
// for the neuron/compartment pairs". A nil DomainMap restricts the match
// to the exact concept.
func (ix *SemanticIndex) SelectSources(dm *DomainMap, concept string) []string {
	if dm == nil {
		return ix.SourcesAt(concept)
	}
	return ix.sourcesAtAny(dm.Descendants(concept))
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
