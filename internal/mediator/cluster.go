package mediator

// Cluster hooks: the primitives a shard router needs from a mediator
// beyond the ordinary query API. FactsDump renders every held source
// state in the rule language, each numbered with the stamp of the
// state it renders — the shard's contribution to the federation — and
// ParseDump parses a shipped dump against the previous one. A move
// reports the change it committed in the same rendering
// (DeltaReport.DumpChange), numbered from and to, so a router holding
// the dump at the move's from-number patches it (ParsedDump.Patch)
// instead of fetching the next. A router whose query cannot be
// answered by unioning per-shard answers (cross-shard joins,
// aggregates, negation over source facts) evaluates over the dumps
// with a mediator that holds no sources, only the static knowledge
// (axioms, bridge, domain map, views): MoveFactBase keeps the build
// over the dumps alive as a FactBase — the mediator's own
// srcstate.Base, fed by dumps — so a gather is a read of a materialised
// result (QueryResult): the per-shard counterpart of a mediator
// reading its own published value. QueryOverFacts evaluates one query
// over a one-off build of the dumps and keeps nothing.

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
	"modelmed/internal/srcstate"
	"modelmed/internal/term"
)

// SourceDump is one source's contribution to the materialized base,
// rendered in the parseable rule language (every line ends with "."):
// ground namespaced facts (plus the source's global schema facts), the
// source's semantic rules, and its anchor/3 facts. Stamp is the number
// of the state rendered (Stamp.Sources), in the dumping mediator's
// Epoch.
type SourceDump struct {
	Source  string   `json:"source"`
	Stamp   uint64   `json:"stamp,omitempty"`
	Facts   []string `json:"facts,omitempty"`
	Rules   []string `json:"rules,omitempty"`
	Anchors []string `json:"anchors,omitempty"`
}

// ViewRules returns the registered view rules in parsed form — the
// rule graph a cluster router's decomposition analysis walks to decide
// whether a view predicate's tuples can cross source (and so shard)
// boundaries.
func (m *Mediator) ViewRules() []datalog.Rule {
	return slices.Clone(m.base.Load().views)
}

// FactsDump materializes (or reuses the cached materialization) and
// returns each registered source's current contribution, sorted by
// source name with sorted fact lines — deterministic for a given
// federation state. The dump reflects every applied delta: it is read
// from the same source states every move folds into.
func (m *Mediator) FactsDump(ctx context.Context) ([]SourceDump, error) {
	v, err := m.materialize(ctx, nil)
	if err != nil {
		return nil, err
	}
	out := make([]SourceDump, 0, v.Len())
	for _, n := range v.Names() {
		st := v.State(n)
		d := SourceDump{Source: n, Stamp: v.stamp.Sources[n], Rules: ruleSig(st.Rules)}
		st.Facts.Each(func(key string, arity int, row []term.Term) {
			d.Facts = append(d.Facts, datalog.Fact(datalog.PredName(key), row...).String())
		})
		st.Anchors.Each(func(key string, arity int, row []term.Term) {
			d.Anchors = append(d.Anchors, datalog.Fact(datalog.PredName(key), row...).String())
		})
		sort.Strings(d.Facts)
		sort.Strings(d.Anchors)
		out = append(out, d)
	}
	return out, nil
}

// DumpChange is a committed change of one source in FactsDump's
// rendering: the fact and anchor lines it added and removed, sorted.
type DumpChange struct {
	Adds       []string `json:"adds,omitempty"`
	Dels       []string `json:"dels,omitempty"`
	AnchorAdds []string `json:"anchor_adds,omitempty"`
	AnchorDels []string `json:"anchor_dels,omitempty"`
}

// DumpChange renders the change the move took effect with, the lines
// taking the dump at r.From to the dump at r.To.
func (r *DeltaReport) DumpChange() DumpChange {
	return DumpChange{Adds: dumpLines(r.Change.Adds), Dels: dumpLines(r.Change.Dels),
		AnchorAdds: dumpLines(r.Change.AnchorAdds), AnchorDels: dumpLines(r.Change.AnchorDels)}
}

func dumpLines(facts []datalog.Rule) []string {
	if len(facts) == 0 {
		return nil
	}
	out := make([]string, len(facts))
	for i, r := range facts {
		out[i] = r.String()
	}
	slices.Sort(out)
	return out
}

// ParsedDump is one source's dump in parsed form. It is immutable once
// ParseDump returns it, so routers share it between concurrent requests
// and keep it as the base the source's next dump is parsed against.
type ParsedDump struct {
	Source string
	// Stamp is the shipped dump's SourceDump.Stamp, or the To of the
	// change that patched it.
	Stamp uint64
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
// costs a parse of the lines that changed. A dump comes from outside the
// process, so its lines pass the check a pushed delta does
// (checkDeltaFacts): every fact and anchor line must be one ground fact,
// and a src_* or anchor line must be namespaced to d.Source.
func ParseDump(d SourceDump, prev *ParsedDump) (*ParsedDump, error) {
	if prev == nil || prev.Source != d.Source {
		prev = &ParsedDump{}
	}
	out := &ParsedDump{Source: d.Source, Stamp: d.Stamp, ruleLines: d.Rules}
	var err error
	if out.facts, err = parseSection(d.Source, d.Facts, prev.facts); err != nil {
		return nil, fmt.Errorf("mediator: dump of %s: %w", d.Source, err)
	}
	if out.anchors, err = parseSection(d.Source, d.Anchors, prev.anchors); err != nil {
		return nil, fmt.Errorf("mediator: dump of %s: %w", d.Source, err)
	}
	if slices.Equal(d.Rules, prev.ruleLines) {
		out.rules = prev.rules
	} else if out.rules, err = parser.ParseRules(strings.Join(d.Rules, "\n")); err != nil {
		return nil, fmt.Errorf("mediator: dump of %s: %w", d.Source, err)
	}
	return out, nil
}

// Patch returns d moved by ch to stamp: d's lines minus the removed
// ones plus the added ones, parsed against d (ParseDump), so only the
// added lines are parsed. A removed line d does not hold, or an added
// line it still holds, means ch was not taken from d's state: an error.
func (d *ParsedDump) Patch(ch DumpChange, stamp uint64) (*ParsedDump, error) {
	facts, err := patchLines(d.facts.lines, ch.Dels, ch.Adds)
	if err != nil {
		return nil, fmt.Errorf("mediator: patch dump of %s: %w", d.Source, err)
	}
	anchors, err := patchLines(d.anchors.lines, ch.AnchorDels, ch.AnchorAdds)
	if err != nil {
		return nil, fmt.Errorf("mediator: patch dump of %s: %w", d.Source, err)
	}
	return ParseDump(SourceDump{Source: d.Source, Stamp: stamp, Facts: facts, Rules: d.ruleLines, Anchors: anchors}, d)
}

// Dump returns d's lines as the SourceDump it was parsed from.
func (d *ParsedDump) Dump() SourceDump {
	return SourceDump{Source: d.Source, Stamp: d.Stamp, Facts: d.facts.lines, Rules: d.ruleLines, Anchors: d.anchors.lines}
}

// patchLines returns the sorted lines minus dels plus adds, sorted.
func patchLines(lines, dels, adds []string) ([]string, error) {
	if len(dels)+len(adds) == 0 {
		return lines, nil
	}
	gone := make(map[string]bool, len(dels))
	for _, l := range dels {
		gone[l] = true
	}
	kept := make([]string, 0, len(lines))
	for _, l := range lines {
		if gone[l] {
			delete(gone, l)
			continue
		}
		kept = append(kept, l)
	}
	if len(gone) > 0 {
		return nil, fmt.Errorf("%d removed lines not held", len(gone))
	}
	adds = slices.Clone(adds)
	slices.Sort(adds)
	out := make([]string, 0, len(kept)+len(adds))
	i := 0
	for _, a := range adds {
		for i < len(kept) && kept[i] < a {
			out = append(out, kept[i])
			i++
		}
		if (i < len(kept) && kept[i] == a) || (len(out) > 0 && out[len(out)-1] == a) {
			return nil, fmt.Errorf("added line %s already held", a)
		}
		out = append(out, a)
	}
	return append(out, kept[i:]...), nil
}

// parseSection parses source's lines, reusing prev's parse of every
// line it shares with prev (a merge over the two sorted line lists).
func parseSection(source string, lines []string, prev dumpSection) (dumpSection, error) {
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
	if err := checkDeltaFacts(source, rules); err != nil {
		return dumpSection{}, err
	}
	for k, r := range rules {
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

// dumpChange is the move that takes a source from dump o to dump d.
func dumpChange(o, d *ParsedDump) (ch srcstate.Change) {
	into := func(adds, dels *[]datalog.Rule) func(datalog.Literal, bool) {
		return func(h datalog.Literal, add bool) {
			if add {
				*adds = append(*adds, datalog.Rule{Head: h})
			} else {
				*dels = append(*dels, datalog.Rule{Head: h})
			}
		}
	}
	diffSection(o.facts, d.facts, into(&ch.Adds, &ch.Dels))
	diffSection(o.anchors, d.anchors, into(&ch.AnchorAdds, &ch.AnchorDels))
	return ch
}

// buildOverFacts is the one way dumps become a result: each dump
// becomes its source's state (two dumps of one source, one state), and
// the states are built (srcstate.Base.Build) over this mediator's
// static program — no registered sources are consulted. The dumps must
// come from mediators with the same domain map and views, or answers
// can diverge from what those mediators would say.
func (m *Mediator) buildOverFacts(ctx context.Context, dumps []*ParsedDump) (srcstate.Base, error) {
	m.mu.Lock()
	e, err := m.newProgramEngineLocked(nil)
	m.mu.Unlock()
	if err != nil {
		return srcstate.Base{}, err
	}
	states := make(map[string]*srcstate.State, len(dumps))
	for _, d := range dumps {
		st := states[d.Source]
		if st == nil {
			st = srcstate.NewState(0)
			states[d.Source] = st
		}
		st.Rules = append(st.Rules, d.rules...)
		for _, h := range d.facts.heads {
			st.Facts.Insert(h.Pred, h.Args)
		}
		for _, h := range d.anchors.heads {
			st.Anchors.Insert(h.Pred, h.Args)
		}
	}
	b, err := srcstate.Build(ctx, e, states, nil)
	if err != nil {
		return b, fmt.Errorf("mediator: build over facts: %w", err)
	}
	return b, nil
}

// FactBase is buildOverFacts kept alive: a srcstate.Base over dumps,
// and by source the dump each state was moved to, which the next dump
// is diffed against. Nothing writes a FactBase once it exists, so
// readers may query its Result while the owner moves on to the next.
// A state is a set of facts, one per line of FactsDump's rendering.
type FactBase struct {
	base  srcstate.Base
	dumps map[string]*ParsedDump
}

// Result is the materialisation over the FactBase's current dumps.
func (fb *FactBase) Result() *datalog.Result { return fb.base.Result() }

// Dumps returns the dumps Result reflects, sorted by source.
func (fb *FactBase) Dumps() []*ParsedDump {
	out := make([]*ParsedDump, 0, len(fb.dumps))
	for _, d := range fb.dumps {
		out = append(out, d)
	}
	slices.SortFunc(out, func(a, b *ParsedDump) int { return strings.Compare(a.Source, b.Source) })
	return out
}

// MoveFactBase returns fb brought to dumps. A nil fb, a source that
// appears or disappears, a source whose rule lines changed, or a move
// that fails is a cold build, reported as rebuilt. Otherwise each source
// whose dump changed moves by the facts and anchors that changed
// (srcstate.Base.Move): a fact leaves the EDB only when no source's
// state still holds it. fb itself is not written.
func (m *Mediator) MoveFactBase(ctx context.Context, fb *FactBase, dumps []*ParsedDump) (next *FactBase, rebuilt bool, err error) {
	bySource := make(map[string]*ParsedDump, len(dumps))
	for _, d := range dumps {
		bySource[d.Source] = d
	}
	if fb != nil && fb.dumps != nil && len(bySource) == len(dumps) {
		next, err := fb.move(ctx, bySource)
		if next != nil {
			return next, false, nil
		}
		if err != nil && ctx.Err() != nil {
			return nil, false, fmt.Errorf("mediator: move fact base: %w", err)
		}
	}
	b, err := m.buildOverFacts(ctx, dumps)
	if err != nil {
		return nil, false, err
	}
	if len(bySource) != len(dumps) {
		// Two dumps of one source: no per-source diff base, so every
		// move of this FactBase is a cold build.
		bySource = nil
	}
	return &FactBase{base: b, dumps: bySource}, true, nil
}

// move returns fb moved to dumps, one per source, or nil when the move
// needs a cold build instead. Each source moves on its own, so whether
// a fact two sources share stays does not depend on the order they
// move in.
func (fb *FactBase) move(ctx context.Context, dumps map[string]*ParsedDump) (*FactBase, error) {
	if len(dumps) != len(fb.dumps) {
		return nil, nil
	}
	for src, d := range dumps {
		if o := fb.dumps[src]; o == nil || !slices.Equal(o.ruleLines, d.ruleLines) {
			return nil, nil
		}
	}
	b := fb.base
	for src, d := range dumps {
		if o := fb.dumps[src]; o != d {
			var err error
			if b, _, _, err = b.Move(ctx, src, 0, dumpChange(o, d)); err != nil {
				return nil, err
			}
		}
	}
	return &FactBase{base: b, dumps: dumps}, nil
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
	p, err := m.Prepare(q, vars)
	if err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	if err := m.ValidateVocabulary(p.Body, p.Aux); err != nil {
		return nil, err
	}
	b, err := m.buildOverFacts(ctx, parsed)
	if err != nil {
		return nil, err
	}
	return answerOver(ctx, b.Result(), p)
}

// QueryResult evaluates the prepared query over res, a FactBase's
// result, behind the same vocabulary gate as QueryOverFacts. A negated
// conjunction's auxiliary rules run in a layer over res that is dropped
// with the answer (see queryResult), so res is only read.
func (m *Mediator) QueryResult(ctx context.Context, res *datalog.Result, p *Prepared) (*Answer, error) {
	if err := m.ValidateVocabulary(p.Body, p.Aux); err != nil {
		return nil, err
	}
	return answerOver(ctx, res, p)
}

func answerOver(ctx context.Context, res *datalog.Result, p *Prepared) (*Answer, error) {
	rows, _, err := queryResult(ctx, res, p)
	if err != nil {
		return nil, fmt.Errorf("mediator: query over facts: %w", err)
	}
	return &Answer{Vars: p.Vars, Rows: rows}, nil
}
