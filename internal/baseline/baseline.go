// Package baseline implements the architecture the paper argues
// against: a *structural* mediator that integrates wrapped sources at
// the level of semistructured (XML) data, with no conceptual models, no
// domain map and no semantic index. Views are structural queries over
// the reified XML trees; values relate only by syntactic equality.
//
// Two deficits drive the comparison benchmarks:
//
//  1. Source selection: without a semantic index, every registered
//     source must be contacted for every query.
//  2. Multiple-worlds mediation: without domain knowledge, data
//     anchored at semantically related concepts (purkinje_cell vs
//     dendrite vs spine) cannot be correlated — only exact string
//     matches join.
package baseline

import (
	"fmt"
	"sort"
	"sync"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
	"modelmed/internal/xmlio"
)

// Stats counts the work the structural mediator performs.
type Stats struct {
	SourcesContacted int
	FactsScanned     int
}

// Mediator is the structural baseline mediator.
type Mediator struct {
	mu    sync.Mutex
	srcs  map[string][]datalog.Rule // reified XML facts per source
	names []string
	stats Stats
}

// New returns an empty structural mediator.
func New() *Mediator {
	return &Mediator{srcs: make(map[string][]datalog.Rule)}
}

// Register wraps a source: its CM document is reified into XML facts —
// the baseline never interprets them conceptually.
func (m *Mediator) Register(w wrapper.Wrapper) error {
	name := w.Name()
	_, doc, err := w.ExportCM()
	if err != nil {
		return err
	}
	facts, err := xmlio.Reify(doc)
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, dup := m.srcs[name]; dup {
		return fmt.Errorf("baseline: source %s already registered", name)
	}
	m.srcs[name] = facts
	m.names = append(m.names, name)
	sort.Strings(m.names)
	return nil
}

// Sources returns the registered source names.
func (m *Mediator) Sources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]string(nil), m.names...)
}

// Stats returns the accumulated work counters.
func (m *Mediator) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the counters.
func (m *Mediator) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// Query evaluates a structural query (over the xml_* predicates) against
// EVERY registered source — the baseline has no index to narrow the
// fan-out — returning the union of rows tagged by source.
func (m *Mediator) Query(q string, vars ...string) (map[string][][]datalog.Cell, error) {
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	names := append([]string(nil), m.names...)
	m.mu.Unlock()
	out := make(map[string][][]datalog.Cell, len(names))
	for _, name := range names {
		m.mu.Lock()
		facts := m.srcs[name]
		m.mu.Unlock()
		e := datalog.NewEngine(nil)
		if err := e.AddRules(facts...); err != nil {
			return nil, err
		}
		if err := e.AddRules(aux...); err != nil {
			return nil, err
		}
		res, err := e.Run()
		if err != nil {
			return nil, err
		}
		rows, err := res.Query(body, vars)
		if err != nil {
			return nil, err
		}
		m.mu.Lock()
		m.stats.SourcesContacted++
		m.stats.FactsScanned += len(facts)
		m.mu.Unlock()
		if len(rows) > 0 {
			out[name] = rows
		}
	}
	return out, nil
}

// ObjectValueQuery is the structural idiom for "objects whose attribute
// equals value": a purely syntactic match over GCMX documents. It
// returns object IDs per source and demonstrates that, absent a domain
// map, only exact value matches are found.
func (m *Mediator) ObjectValueQuery(method, value string) (map[string][]string, error) {
	// Reified XML attribute values are atoms; quote them as such.
	rows, err := m.Query(fmt.Sprintf(`
		xml_elem(E, object), xml_attr(E, id, ID),
		xml_child(E, V), xml_elem(V, value),
		xml_attr(V, method, %s), xml_attr(V, v, %s)`,
		term.Atom(method), term.Atom(value)), "ID")
	if err != nil {
		return nil, err
	}
	out := make(map[string][]string, len(rows))
	for src, rs := range rows {
		for _, r := range rs {
			out[src] = append(out[src], r[0].Term().Name())
		}
		sort.Strings(out[src])
	}
	return out, nil
}

// FlatAmountSum is the structural best effort at the paper's
// protein-distribution question: sum the amount values of objects whose
// location attribute is *exactly* the requested string. Data anchored
// at contained concepts (dendrite, spine, ...) is invisible — there is
// no has_a_star to traverse.
func (m *Mediator) FlatAmountSum(protein, organism, location string) (float64, int, error) {
	rows, err := m.Query(fmt.Sprintf(`
		xml_elem(E, object), xml_attr(E, id, ID),
		xml_child(E, VP), xml_elem(VP, value), xml_attr(VP, method, protein_name), xml_attr(VP, v, %s),
		xml_child(E, VO), xml_elem(VO, value), xml_attr(VO, method, organism), xml_attr(VO, v, %s),
		xml_child(E, VL), xml_elem(VL, value), xml_attr(VL, method, location), xml_attr(VL, v, %s),
		xml_child(E, VA), xml_elem(VA, value), xml_attr(VA, method, amount), xml_attr(VA, v, A)`,
		term.Atom(protein), term.Atom(organism), term.Atom(location)), "ID", "A")
	if err != nil {
		return 0, 0, err
	}
	var sum float64
	n := 0
	for _, rs := range rows {
		for _, r := range rs {
			// Amounts arrive as reified attribute strings; parse them
			// back — the structural layer has no typed values.
			t, err := parser.ParseTerm(r[1].Term().Name())
			if err != nil {
				continue
			}
			if f, ok := t.Numeric(); ok {
				sum += f
				n++
			}
		}
	}
	return sum, n, nil
}
