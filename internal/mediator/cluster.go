package mediator

// Cluster hooks: the two primitives a shard router needs from a
// mediator beyond the ordinary query API.
//
//   - FactsDump renders, per registered source, exactly the facts,
//     semantic rules and anchors the current materialization was built
//     from — the shard's contribution to the federation, in the rule
//     language, already reflecting every applied delta. A router whose
//     query cannot be answered by unioning per-shard answers (cross-
//     shard joins, aggregates, negation over source facts) gathers
//     these dumps and evaluates at the routing tier.
//
//   - QueryOverFacts evaluates a query over a supplied set of dumps
//     using this mediator's *static* knowledge only (F-logic axioms,
//     GCM bridge, domain map + closure rules, registered views). The
//     caller's mediator typically has no sources registered at all: it
//     is the replicated-knowledge evaluator of a router, fed entirely
//     by shard dumps.
//
// Together they generalize ExecutePlan's "load the relevant sources,
// then evaluate" shape from sources to shards: the dump is the shard-
// granular load, QueryOverFacts the residual evaluation.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
	"modelmed/internal/term"
)

// SourceDump is one source's contribution to the materialized base,
// rendered in the parseable rule language (every line ends with "."):
// ground namespaced facts (plus the source's global schema facts), the
// source's semantic rules, and its anchor/3 facts.
type SourceDump struct {
	Source  string   `json:"source"`
	Facts   []string `json:"facts,omitempty"`
	Rules   []string `json:"rules,omitempty"`
	Anchors []string `json:"anchors,omitempty"`
}

// ViewRules returns the registered view rules in parsed form — the
// rule graph a cluster router's decomposition analysis walks to decide
// whether a view predicate's tuples can cross source (and so shard)
// boundaries.
func (m *Mediator) ViewRules() []datalog.Rule {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]datalog.Rule(nil), m.views...)
}

// FactsDump materializes (or reuses the cached materialization) and
// returns each registered source's current contribution, sorted by
// source name with sorted fact lines — deterministic for a given
// federation state. The dump reflects every applied delta: it is read
// from the same per-source snapshots the incremental layer patches.
func (m *Mediator) FactsDump(ctx context.Context) ([]SourceDump, error) {
	m.evalMu.RLock()
	defer m.evalMu.RUnlock()
	if _, err := m.materialize(ctx, nil); err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.snaps))
	for n := range m.snaps {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]SourceDump, 0, len(names))
	for _, n := range names {
		snap := m.snaps[n]
		d := SourceDump{Source: n, Rules: append([]string(nil), snap.ruleSig...)}
		snap.facts.Each(func(key string, arity int, row []term.Term) {
			d.Facts = append(d.Facts, datalog.Fact(datalog.PredName(key), row...).String())
		})
		snap.anchors.Each(func(key string, arity int, row []term.Term) {
			d.Anchors = append(d.Anchors, datalog.Fact(datalog.PredName(key), row...).String())
		})
		sort.Strings(d.Facts)
		sort.Strings(d.Anchors)
		out = append(out, d)
	}
	return out, nil
}

// QueryOverFacts evaluates q over the supplied dumps and this
// mediator's static rule program (axioms, bridge, domain map, closure
// rules, views — no registered sources are consulted). The dumps must
// have been produced against the same domain map and view set, or
// answers can diverge from what the dumping mediators would say. vars
// selects output columns; empty means all query variables in order of
// first occurrence. Unknown predicates are rejected with
// ErrUnknownPredicate, the same untrusted-input gate Plan applies.
func (m *Mediator) QueryOverFacts(ctx context.Context, dumps []SourceDump, q string, vars []string) (*Answer, error) {
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	if err := m.validateVocabulary(body, aux); err != nil {
		return nil, err
	}
	m.mu.Lock()
	e, err := m.newProgramEngineLocked(nil)
	m.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if err := e.AddRules(aux...); err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	for _, d := range dumps {
		for _, section := range [][]string{d.Facts, d.Rules, d.Anchors} {
			if len(section) == 0 {
				continue
			}
			rules, err := parser.ParseRules(strings.Join(section, "\n"))
			if err != nil {
				return nil, fmt.Errorf("mediator: query over facts: source %s: %w", d.Source, err)
			}
			if err := e.AddRules(rules...); err != nil {
				return nil, fmt.Errorf("mediator: query over facts: source %s: %w", d.Source, err)
			}
		}
	}
	res, err := e.RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	if len(vars) == 0 {
		vars = defaultVars(body)
	}
	rows, err := res.QueryCtx(ctx, body, vars)
	if err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	return &Answer{Vars: vars, Rows: rows}, nil
}
