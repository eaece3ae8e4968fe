package mediator

// Cluster hooks: the primitives a shard router needs from a mediator
// beyond the ordinary query API.
//
//   - FactsDump renders, per registered source, exactly the facts,
//     semantic rules and anchors the current materialization was built
//     from — the shard's contribution to the federation, in the rule
//     language, already reflecting every applied delta. A router whose
//     query cannot be answered by unioning per-shard answers (cross-
//     shard joins, aggregates, negation over source facts) gathers
//     these dumps and evaluates at the routing tier.
//
//   - ParseDump turns a shipped dump into a ParsedDump, parsing only
//     the lines the previous dump of the same source did not hold.
//
//   - QueryOverFacts evaluates a query over this mediator's *static*
//     knowledge only (F-logic axioms, GCM bridge, domain map + closure
//     rules, registered views) and a set of dumps: parse, build, query.
//     The caller's mediator typically has no sources registered at all:
//     it is the replicated-knowledge evaluator of a router, fed entirely
//     by shard dumps. QueryOverParsed is the same over parsed dumps; a
//     router uses it for restricted and partial gathers.
//
//   - MoveFactBase keeps such a build alive across dumps: a FactBase is
//     patched with one ApplyDelta on the lines that changed, so a router
//     answers a gather with a read of a materialised result
//     (QueryResult) instead of a fixpoint per query.
//
// Together they generalize ExecutePlan's "load the relevant sources,
// then evaluate" shape from sources to shards: the dump is the shard-
// granular load, the build over it the residual evaluation.

import (
	"context"
	"fmt"
	"slices"
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
		d := SourceDump{Source: n, Rules: ruleSig(snap.rules)}
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

// ParsedDump is one source's dump in parsed form. It is immutable once
// ParseDump returns it, so routers share it between concurrent requests
// and keep it as the base the source's next dump is parsed against.
type ParsedDump struct {
	Source string
	// facts and anchors are the dump's ground lines, sorted, each with
	// its parsed head at the same index.
	facts, anchors dumpSection
	// ruleLines are the semantic rules verbatim; rules is their parse.
	ruleLines []string
	rules     []datalog.Rule
}

type dumpSection struct {
	lines []string
	heads []datalog.Literal
}

// ParseDump parses d. Lines prev (a parse of an earlier dump of the same
// source, or nil) also holds are not parsed again, so a re-shipped dump
// costs a parse of the lines that changed. Every fact and anchor line
// must be one ground fact.
func ParseDump(d SourceDump, prev *ParsedDump) (*ParsedDump, error) {
	if prev == nil {
		prev = &ParsedDump{}
	}
	out := &ParsedDump{Source: d.Source, ruleLines: d.Rules}
	var err error
	if out.facts, err = parseSection(d.Facts, prev.facts); err != nil {
		return nil, fmt.Errorf("mediator: dump of %s: %w", d.Source, err)
	}
	if out.anchors, err = parseSection(d.Anchors, prev.anchors); err != nil {
		return nil, fmt.Errorf("mediator: dump of %s: %w", d.Source, err)
	}
	if slices.Equal(d.Rules, prev.ruleLines) {
		out.rules = prev.rules
	} else if out.rules, err = parser.ParseRules(strings.Join(d.Rules, "\n")); err != nil {
		return nil, fmt.Errorf("mediator: dump of %s: %w", d.Source, err)
	}
	return out, nil
}

// parseSection parses lines, reusing prev's parse of every line it
// shares with prev (a merge over the two sorted line lists).
func parseSection(lines []string, prev dumpSection) (dumpSection, error) {
	if !slices.IsSorted(lines) {
		lines = slices.Clone(lines)
		slices.Sort(lines)
	}
	out := dumpSection{lines: lines, heads: make([]datalog.Literal, len(lines))}
	var fresh []int
	i := 0
	for j, l := range lines {
		for i < len(prev.lines) && prev.lines[i] < l {
			i++
		}
		if i < len(prev.lines) && prev.lines[i] == l {
			out.heads[j] = prev.heads[i]
			i++
			continue
		}
		fresh = append(fresh, j)
	}
	if len(fresh) == 0 {
		return out, nil
	}
	text := make([]string, len(fresh))
	for k, j := range fresh {
		text[k] = lines[j]
	}
	rules, err := parser.ParseRules(strings.Join(text, "\n"))
	if err != nil {
		return dumpSection{}, err
	}
	if len(rules) != len(fresh) {
		return dumpSection{}, fmt.Errorf("%d lines parse to %d clauses", len(fresh), len(rules))
	}
	for k, r := range rules {
		if !isGroundFact(r) {
			return dumpSection{}, fmt.Errorf("%q is not a ground fact", text[k])
		}
		out.heads[fresh[k]] = r.Head
	}
	return out, nil
}

// diffSection calls fn for every head old holds and cur does not
// (add=false) and every head cur holds and old does not (add=true).
func diffSection(old, cur dumpSection, fn func(h datalog.Literal, add bool)) {
	i, j := 0, 0
	for i < len(old.lines) || j < len(cur.lines) {
		switch {
		case j == len(cur.lines) || (i < len(old.lines) && old.lines[i] < cur.lines[j]):
			fn(old.heads[i], false)
			i++
		case i == len(old.lines) || cur.lines[j] < old.lines[i]:
			fn(cur.heads[j], true)
			j++
		default:
			i++
			j++
		}
	}
}

// buildOverFacts is the one way dumps become an engine and a result:
// this mediator's static rule program (axioms, bridge, domain map,
// closure rules, views — no registered sources are consulted), each
// dump's semantic rules, and its facts and anchors as EDB facts.
// The dumps must have been produced against the same domain map and
// view set, or answers can diverge from what the dumping mediators
// would say. With refs non-nil it also counts, per fact, the dump lines
// that hold it.
func (m *Mediator) buildOverFacts(ctx context.Context, dumps []*ParsedDump, refs map[string]int32) (*datalog.Engine, *datalog.Result, error) {
	m.mu.Lock()
	e, err := m.newProgramEngineLocked(nil)
	m.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	for _, d := range dumps {
		if err := e.AddRules(d.rules...); err != nil {
			return nil, nil, fmt.Errorf("mediator: build over facts: source %s: %w", d.Source, err)
		}
		for _, sec := range []*dumpSection{&d.facts, &d.anchors} {
			for _, h := range sec.heads {
				if err := e.AddFact(h.Pred, h.Args...); err != nil {
					return nil, nil, fmt.Errorf("mediator: build over facts: source %s: %w", d.Source, err)
				}
				if refs != nil {
					refs[factKey(h)]++
				}
			}
		}
	}
	res, err := e.RunCtx(ctx)
	if err != nil {
		return nil, nil, fmt.Errorf("mediator: build over facts: %w", err)
	}
	return e, res, nil
}

// factKey identifies a ground fact by value, not by its line's text.
func factKey(h datalog.Literal) string { return term.Comp(h.Pred, h.Args...).Key() }

// FactBase is buildOverFacts kept alive: the engine, its result, the
// dumps it was built from by source, and per fact the number of dump
// lines across sources that hold it. It is not safe for concurrent use;
// Result is never mutated, so readers may query it while the owner
// moves the FactBase on (see datalog.Engine.ApplyDelta).
type FactBase struct {
	eng   *datalog.Engine
	res   *datalog.Result
	dumps map[string]*ParsedDump
	refs  map[string]int32
}

// Result is the materialisation over the FactBase's current dumps.
func (fb *FactBase) Result() *datalog.Result { return fb.res }

// Dumps returns the dumps Result reflects, sorted by source.
func (fb *FactBase) Dumps() []*ParsedDump {
	out := make([]*ParsedDump, 0, len(fb.dumps))
	for _, d := range fb.dumps {
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b *ParsedDump) int { return strings.Compare(a.Source, b.Source) })
	return out
}

// MoveFactBase brings fb to dumps. A nil fb, a source that appears or
// disappears, a source whose rule lines changed, or a patch that fails
// is a cold build, reported as rebuilt. Otherwise the facts and anchors
// that changed go into one ApplyDelta, fb is patched in place and
// returned: a fact leaves the EDB only when no dump line of any source
// still holds it. After an error fb must not be used again.
func (m *Mediator) MoveFactBase(ctx context.Context, fb *FactBase, dumps []*ParsedDump) (next *FactBase, rebuilt bool, err error) {
	bySource := make(map[string]*ParsedDump, len(dumps))
	for _, d := range dumps {
		bySource[d.Source] = d
	}
	if fb != nil && fb.dumps != nil && len(bySource) == len(dumps) {
		ok, err := fb.patch(ctx, bySource)
		if ok {
			return fb, false, nil
		}
		if err != nil && ctx.Err() != nil {
			return nil, false, fmt.Errorf("mediator: move fact base: %w", err)
		}
	}
	refs := map[string]int32{}
	e, res, err := m.buildOverFacts(ctx, dumps, refs)
	if err != nil {
		return nil, false, err
	}
	if len(bySource) != len(dumps) {
		// Two dumps of one source: no per-source diff base, so every
		// move of this FactBase is a cold build.
		bySource = nil
	}
	return &FactBase{eng: e, res: res, dumps: bySource, refs: refs}, true, nil
}

// patch moves fb to dumps, one per source, with one ApplyDelta,
// reporting false when the move needs a cold build instead. A failed
// ApplyDelta leaves fb unusable; the caller rebuilds.
func (fb *FactBase) patch(ctx context.Context, dumps map[string]*ParsedDump) (bool, error) {
	if len(dumps) != len(fb.dumps) {
		return false, nil
	}
	for src, d := range dumps {
		if o := fb.dumps[src]; o == nil || !slices.Equal(o.ruleLines, d.ruleLines) {
			return false, nil
		}
	}
	// Heads are ground (ParseDump checks), so Add and Del cannot fail.
	delta := datalog.NewDelta()
	move := func(h datalog.Literal, add bool) {
		k := factKey(h)
		n := fb.refs[k]
		switch {
		case add:
			fb.refs[k] = n + 1
			if n == 0 {
				_ = delta.Add(h.Pred, h.Args...)
			}
		case n > 1:
			fb.refs[k] = n - 1 // another line still holds it
		default:
			delete(fb.refs, k)
			_ = delta.Del(h.Pred, h.Args...)
		}
	}
	for src, d := range dumps {
		if o := fb.dumps[src]; o != d {
			diffSection(o.facts, d.facts, move)
			diffSection(o.anchors, d.anchors, move)
		}
	}
	fb.dumps = dumps
	if delta.Empty() {
		return true, nil
	}
	res, err := fb.eng.ApplyDeltaCtx(ctx, fb.res, delta)
	if err != nil {
		return false, err
	}
	fb.res = res
	return true, nil
}

// QueryOverFacts evaluates q over the supplied dumps and this
// mediator's static rule program — a one-off cold build. vars
// selects output columns; empty means all query variables in order of
// first occurrence. Unknown predicates are rejected with
// ErrUnknownPredicate, the same untrusted-input gate Plan applies.
func (m *Mediator) QueryOverFacts(ctx context.Context, dumps []SourceDump, q string, vars []string) (*Answer, error) {
	parsed := make([]*ParsedDump, len(dumps))
	for i, d := range dumps {
		p, err := ParseDump(d, nil)
		if err != nil {
			return nil, fmt.Errorf("mediator: query over facts: %w", err)
		}
		parsed[i] = p
	}
	return m.QueryOverParsed(ctx, parsed, q, vars)
}

// QueryOverParsed is QueryOverFacts over dumps already parsed.
func (m *Mediator) QueryOverParsed(ctx context.Context, dumps []*ParsedDump, q string, vars []string) (*Answer, error) {
	body, aux, err := m.parseFactsQuery(q)
	if err != nil {
		return nil, err
	}
	_, res, err := m.buildOverFacts(ctx, dumps, nil)
	if err != nil {
		return nil, err
	}
	return answerOver(ctx, res, body, aux, vars)
}

// QueryResult evaluates q over res, a FactBase's result, behind the same
// vocabulary gate as QueryOverFacts. A negated conjunction's auxiliary
// rules run in a layer over res that is dropped with the answer (see
// queryResult), so res is only read.
func (m *Mediator) QueryResult(ctx context.Context, res *datalog.Result, q string, vars []string) (*Answer, error) {
	body, aux, err := m.parseFactsQuery(q)
	if err != nil {
		return nil, err
	}
	return answerOver(ctx, res, body, aux, vars)
}

// parseFactsQuery parses q and gates its vocabulary.
func (m *Mediator) parseFactsQuery(q string) ([]datalog.BodyElem, []datalog.Rule, error) {
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		return nil, nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	if err := m.ValidateVocabulary(body, aux); err != nil {
		return nil, nil, err
	}
	return body, aux, nil
}

func answerOver(ctx context.Context, res *datalog.Result, body []datalog.BodyElem, aux []datalog.Rule, vars []string) (*Answer, error) {
	if len(vars) == 0 {
		vars = defaultVars(body)
	}
	rows, _, err := queryResult(ctx, res, body, aux, vars)
	if err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	return &Answer{Vars: vars, Rows: rows}, nil
}
