package mediator

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"modelmed/internal/datalog"
	"modelmed/internal/domainmap"
	"modelmed/internal/obs"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// The planner generalizes the Section 5 query plan to arbitrary
// conjunctive queries over the mediated vocabulary: it derives, from the
// query text alone, (i) which sources can contribute at all — via the
// semantic index, when every source position is constrained by ground
// anchor concepts — and (ii) which selections a source's capabilities
// let it answer itself. Every source's state is already held, so the
// capabilities decide what the plan explains, not where its rows come
// from: a planned query reads the published value a served query reads.

// PushdownStep records one source access of a plan.
type PushdownStep struct {
	Source     string
	Class      string
	Selections []wrapper.Selection
	// Pushed reports whether the source's capabilities cover the
	// selections (true) or the source could only be scanned and
	// filtered (false).
	Pushed bool
	// Returned is the number of held objects the step selects.
	Returned int
}

// QueryPlan is the analyzed form of a mediated query.
type QueryPlan struct {
	Body []datalog.BodyElem
	Aux  []datalog.Rule
	// Concepts are the ground anchor concepts the query mentions.
	Concepts []string
	// Sources are the candidate sources; nil means "all sources" (the
	// query has an unconstrained source position).
	Sources []string
	// Restricted reports whether source pruning applies.
	Restricted bool
	// Pushdowns are the planned per-source accesses (PlannedQuery fills
	// in Pushed/Returned).
	Pushdowns []PushdownStep
	// Trace is the human-readable plan log.
	Trace []string
	// Span is PlannedQuery's span tree (nil when tracing is off), with
	// materialize/evaluate children.
	Span *obs.Span

	// srcVars are the source variables of a restricted plan.
	srcVars []string
}

func (p *QueryPlan) tracef(format string, args ...interface{}) {
	p.Trace = append(p.Trace, fmt.Sprintf(format, args...))
}

// conceptDomains pre-computes, for concept variables bound by
// dm_down/dm_isa_star literals with ground roots, the set of concepts
// the variable can range over. This lets the planner prune through the
// Example 1 idiom `anchor(S, O, C), dm_down(has_a, Root, C)`.
func (m *Mediator) conceptDomains(body []datalog.BodyElem) map[string][]string {
	out := map[string][]string{}
	add := func(v string, concepts []string) {
		if cur, ok := out[v]; ok {
			// Intersect with any previous domain.
			concepts = slices.DeleteFunc(slices.Clone(cur), func(c string) bool { return !slices.Contains(concepts, c) })
		}
		out[v] = concepts
	}
	for _, e := range body {
		l, ok := e.(datalog.Literal)
		if !ok || l.Neg {
			continue
		}
		switch l.Pred {
		case "dm_down":
			if len(l.Args) == 3 && l.Args[0].Kind() == term.KindAtom &&
				l.Args[1].Kind() == term.KindAtom && l.Args[2].Kind() == term.KindVar {
				add(l.Args[2].Name(), m.dm.DownClosure(l.Args[0].Name(), l.Args[1].Name()))
			}
		case "dm_isa_star":
			if len(l.Args) == 2 && l.Args[1].Kind() == term.KindAtom && l.Args[0].Kind() == term.KindVar {
				add(l.Args[0].Name(), m.dm.Descendants(l.Args[1].Name()))
			}
		}
	}
	return out
}

// Plan analyzes a query without executing it. Queries mentioning
// predicates outside the mediated vocabulary (source facts, domain-map
// graph operations, GCM predicates, registered views and the query's
// own auxiliary rules) are rejected: the serving layer feeds Plan from
// untrusted clients, and an unknown predicate would otherwise evaluate
// silently to the empty answer.
func (m *Mediator) Plan(q string) (*QueryPlan, error) {
	pq, err := m.Prepare(q, nil)
	if err != nil {
		return nil, fmt.Errorf("mediator: plan: %w", err)
	}
	return m.plan(pq)
}

// plan is Plan over a prepared query, whose Body and Aux the plan
// shares.
func (m *Mediator) plan(pq *Prepared) (*QueryPlan, error) {
	body, aux := pq.Body, pq.Aux
	if err := m.ValidateVocabulary(body, aux); err != nil {
		return nil, err
	}
	p := &QueryPlan{Body: body, Aux: aux}

	// Pruning is only sound when the query touches source data solely
	// through the source vocabulary: a view predicate may read any
	// source.
	if pred := firstViewPred(body); pred != "" {
		p.tracef("query uses view/derived predicate %s; no source pruning", pred)
		p.Restricted = false
		p.Sources = m.Sources()
		p.Pushdowns = m.extractPushdowns(body, p)
		return p, nil
	}

	domains := m.conceptDomains(body)
	// bySrcVar holds, per source variable, the source set each of its
	// anchor literals admits.
	bySrcVar := map[string][]map[string]bool{}
	var groundSources []string
	conceptSet := map[string]bool{}

	srcLit := func(l datalog.Literal) bool {
		switch l.Pred {
		case PredSrcObj, PredSrcVal, PredSrcTuple, PredAnchor:
			return len(l.Args) >= 1
		}
		return false
	}
	// allowedFor computes the source set an anchor literal admits.
	allowedFor := func(conceptArg term.Term) (map[string]bool, bool) {
		switch conceptArg.Kind() {
		case term.KindAtom:
			conceptSet[conceptArg.Name()] = true
			set := map[string]bool{}
			for _, s := range m.index.SelectSources(m.dm, conceptArg.Name()) {
				set[s] = true
			}
			return set, true
		case term.KindVar:
			dom, ok := domains[conceptArg.Name()]
			if !ok {
				return nil, false
			}
			set := map[string]bool{}
			for _, c := range dom {
				for _, s := range m.index.SelectSources(m.dm, c) {
					set[s] = true
				}
			}
			return set, true
		}
		return nil, false
	}
	for _, e := range body {
		l, ok := e.(datalog.Literal)
		if !ok || l.Neg || !srcLit(l) {
			continue
		}
		srcArg := l.Args[0]
		switch srcArg.Kind() {
		case term.KindAtom:
			groundSources = append(groundSources, srcArg.Name())
			if l.Pred == PredAnchor && len(l.Args) == 3 && l.Args[2].Kind() == term.KindAtom {
				conceptSet[l.Args[2].Name()] = true
			}
		case term.KindVar:
			// A non-anchor access or an unconstrained concept does not
			// restrict the variable.
			sets := bySrcVar[srcArg.Name()]
			if l.Pred == PredAnchor && len(l.Args) == 3 {
				if set, ok := allowedFor(l.Args[2]); ok {
					sets = append(sets, set)
				}
			}
			bySrcVar[srcArg.Name()] = sets
		}
	}
	for c := range conceptSet {
		p.Concepts = append(p.Concepts, c)
	}
	sort.Strings(p.Concepts)

	// A source variable is constrained iff at least one of its anchor
	// literals yields an allowed set; its candidates are the
	// intersection of those sets. Variables with no constraining anchor
	// force "all sources".
	unconstrained := false
	candSet := map[string]bool{}
	for _, s := range groundSources {
		candSet[s] = true
	}
	varNames := make([]string, 0, len(bySrcVar))
	for v := range bySrcVar {
		varNames = append(varNames, v)
	}
	sort.Strings(varNames)
	for _, v := range varNames {
		sets := bySrcVar[v]
		if len(sets) == 0 {
			unconstrained = true
			p.tracef("source variable %s is unconstrained; no source pruning", v)
			continue
		}
		var names []string
		for s := range sets[0] {
			if !slices.ContainsFunc(sets[1:], func(set map[string]bool) bool { return !set[s] }) {
				names = append(names, s)
			}
		}
		sort.Strings(names)
		p.tracef("source variable %s: semantic index allows %v", v, names)
		for _, s := range names {
			candSet[s] = true
		}
	}
	if unconstrained {
		p.Restricted = false
		p.Sources = m.Sources()
	} else {
		p.Restricted = true
		p.srcVars = varNames
		for s := range candSet {
			p.Sources = append(p.Sources, s)
		}
		sort.Strings(p.Sources)
		p.tracef("restricted to sources %v", p.Sources)
	}

	// Pushdown extraction per ground source: object variables with a
	// ground class and ground-valued selections.
	p.Pushdowns = m.extractPushdowns(body, p)
	return p, nil
}

// mediatedVocab is the static query vocabulary: namespaced source
// facts, GCM predicates, and the domain-map graph operations.
var mediatedVocab = map[string]bool{
	PredSrcObj: true, PredSrcVal: true, PredSrcTuple: true, PredAnchor: true,
	PredSrcSub: true,
	"instance": true, "subclass": true, "method": true, "methodinst": true,
	"rel": true, "relattr": true, "relinst": true,
	domainmap.PredConcept: true, domainmap.PredIsa: true, domainmap.PredEdge: true,
	"dm_isa_star": true, "dm_tc": true, "dm_dc": true, "dm_dc_down": true,
	"dm_down": true, "role_star": true, "dm_role": true,
	"role": true, "role_base": true,
}

// derivedHeads returns the head predicates a query may additionally
// reference: the registered views, the views' own derived predicates
// (views may be layered), and the query's auxiliary rules.
func derivedHeads(views, aux []datalog.Rule) map[string]bool {
	out := make(map[string]bool, len(views)+len(aux))
	for _, r := range views {
		out[r.Head.Pred] = true
	}
	for _, r := range aux {
		out[r.Head.Pred] = true
	}
	return out
}

// ErrUnknownPredicate marks vocabulary rejections, so callers feeding
// the mediator untrusted input (the serving layer) can classify them as
// client errors.
var ErrUnknownPredicate = errors.New("unknown predicate")

// ValidateVocabulary rejects body predicates outside the mediated
// vocabulary, the registered view heads, and the query's auxiliary
// rules — the untrusted-input gate in front of Plan and of a served
// query.
func (m *Mediator) ValidateVocabulary(body []datalog.BodyElem, aux []datalog.Rule) error {
	heads := derivedHeads(m.base.Load().views, aux)
	var bad []string
	seen := map[string]bool{}
	check := func(l datalog.Literal) bool {
		if !datalog.IsBuiltin(l.Pred, len(l.Args)) && !mediatedVocab[l.Pred] && !heads[l.Pred] && !seen[l.Pred] {
			seen[l.Pred] = true
			bad = append(bad, l.Pred)
		}
		return true
	}
	eachLiteral(body, check)
	// Auxiliary rule bodies face the same gate: a negated group over an
	// unknown predicate is just as silently empty.
	for _, r := range aux {
		eachLiteral(r.Body, check)
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("mediator: plan: %w(s) %s: not a source/domain-map/GCM predicate, registered view, or query-local rule", ErrUnknownPredicate, strings.Join(bad, ", "))
}

// eachLiteral calls fn on every literal of es, aggregate bodies
// included, until fn returns false.
func eachLiteral(es []datalog.BodyElem, fn func(datalog.Literal) bool) {
	for _, e := range es {
		switch x := e.(type) {
		case datalog.Literal:
			if !fn(x) {
				return
			}
		case datalog.Aggregate:
			for _, l := range x.Body {
				if !fn(l) {
					return
				}
			}
		}
	}
}

// firstViewPred returns the first body predicate that is a registered
// view head (or any derived predicate outside the known mediated
// vocabulary), or "" if the query stays within the source/DM/GCM
// vocabulary.
func firstViewPred(body []datalog.BodyElem) (pred string) {
	eachLiteral(body, func(l datalog.Literal) bool {
		if datalog.IsBuiltin(l.Pred, len(l.Args)) || mediatedVocab[l.Pred] {
			return true
		}
		pred = l.Pred
		return false
	})
	return pred
}

// extractPushdowns finds, for each (ground source, object variable) of
// the query, the class and the ground selections that can be shipped to
// the wrapper.
func (m *Mediator) extractPushdowns(body []datalog.BodyElem, p *QueryPlan) []PushdownStep {
	type objKey struct{ src, objVar string }
	classes := map[objKey]string{}
	sels := map[objKey][]wrapper.Selection{}
	fullLoad := map[string]bool{} // sources that must load completely

	for _, e := range body {
		l, ok := e.(datalog.Literal)
		if !ok || l.Neg {
			continue
		}
		switch l.Pred {
		case PredSrcObj:
			if len(l.Args) != 3 || l.Args[0].Kind() != term.KindAtom {
				continue
			}
			src := l.Args[0].Name()
			if l.Args[1].Kind() != term.KindVar || l.Args[2].Kind() != term.KindAtom {
				fullLoad[src] = true
				continue
			}
			k := objKey{src, l.Args[1].Name()}
			classes[k] = l.Args[2].Name()
		case PredSrcVal:
			if len(l.Args) != 4 || l.Args[0].Kind() != term.KindAtom {
				continue
			}
			src := l.Args[0].Name()
			if l.Args[1].Kind() != term.KindVar || l.Args[2].Kind() != term.KindAtom {
				fullLoad[src] = true
				continue
			}
			if !l.Args[3].IsGround() {
				continue // open value: evaluated over loaded facts
			}
			k := objKey{src, l.Args[1].Name()}
			sels[k] = append(sels[k], wrapper.Selection{Attr: l.Args[2].Name(), Value: l.Args[3]})
		case PredSrcTuple:
			if len(l.Args) >= 1 && l.Args[0].Kind() == term.KindAtom {
				fullLoad[l.Args[0].Name()] = true
			}
		}
	}
	// An object variable without a ground class cannot be pushed; its
	// source must load fully. Same for anchor literals (which constrain
	// concepts, not objects) whose object variables have no classed
	// access.
	for _, e := range body {
		l, ok := e.(datalog.Literal)
		if !ok || l.Neg {
			continue
		}
		if (l.Pred == PredSrcVal || l.Pred == PredAnchor) &&
			len(l.Args) >= 2 && l.Args[0].Kind() == term.KindAtom && l.Args[1].Kind() == term.KindVar {
			k := objKey{l.Args[0].Name(), l.Args[1].Name()}
			if _, classed := classes[k]; !classed {
				fullLoad[k.src] = true
			}
		}
	}
	var steps []PushdownStep
	keys := make([]objKey, 0, len(classes))
	for k := range classes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].src != keys[j].src {
			return keys[i].src < keys[j].src
		}
		return keys[i].objVar < keys[j].objVar
	})
	for _, k := range keys {
		if fullLoad[k.src] {
			continue
		}
		steps = append(steps, PushdownStep{Source: k.src, Class: classes[k], Selections: sels[k]})
		p.tracef("pushdown to %s: class %s, %d selection(s)", k.src, classes[k], len(sels[k]))
	}
	full := make([]string, 0, len(fullLoad))
	for src := range fullLoad {
		full = append(full, src)
	}
	sort.Strings(full)
	for _, src := range full {
		p.tracef("source %s loads fully (unclassed or tuple access)", src)
	}
	return steps
}

// PlannedQuery plans a query and answers it, returning the answer and
// the plan (with its trace).
func (m *Mediator) PlannedQuery(q string, vars ...string) (*Answer, *QueryPlan, error) {
	return m.PlannedQueryCtx(context.Background(), q, vars...)
}

// planSource holds, in a planned query's per-query layer, the sources
// of a restricted plan.
const planSource = "$plan_source"

// PlannedQueryCtx is PlannedQuery under the caller's context (see
// QueryCtx). A planned query is a served query plus its plan: the plan's
// body is evaluated over the one published value QueryCtx reads, with
// the query's auxiliary rules in the per-query layer. A restricted plan
// adds to that layer the fact set of its sources and binds every source
// variable to it, so the answer holds exactly what the semantic index's
// pruning admits. The pushdowns are explained from the same value
// (heldRows); no wrapper is called.
func (m *Mediator) PlannedQueryCtx(ctx context.Context, q string, vars ...string) (*Answer, *QueryPlan, error) {
	pq, err := m.Prepare(q, vars)
	if err != nil {
		return nil, nil, fmt.Errorf("mediator: plan: %w", err)
	}
	p, err := m.plan(pq)
	if err != nil {
		return nil, nil, err
	}
	sp := m.startSpan("mediator.planned_query")
	defer m.endTrace(sp)
	p.Span = sp
	msp := sp.Child("materialize")
	v, err := m.materialize(ctx, msp)
	msp.End()
	if err != nil {
		return nil, p, err
	}

	pushedSrc := map[string]bool{}
	for i := range p.Pushdowns {
		step := &p.Pushdowns[i]
		pushedSrc[step.Source] = true
		rows, pushed, err := m.heldRows(v, step.Source, step.Class, step.Selections)
		if sourceDown(err) {
			p.tracef("source %s is down; degrading without it (%v)", step.Source, err)
			continue
		}
		if err != nil {
			return nil, p, err
		}
		step.Pushed, step.Returned = pushed, len(rows)
		p.tracef("selected %d held objects from %s (pushdown=%v)", len(rows), step.Source, pushed)
	}
	candidate := map[string]bool{}
	for _, s := range p.Sources {
		candidate[s] = true
	}
	for _, src := range v.sources() {
		switch s := src.Name; {
		case !candidate[s]:
			p.tracef("skipped source %s (not selected by the semantic index)", s)
		case pushedSrc[s]: // traced with its pushdown steps
		case v.State(s) == nil:
			p.tracef("source %s is down; degrading without it (%v)", s, m.downError(s))
		default:
			p.tracef("read source %s whole from the held state", s)
		}
	}

	if p.Restricted && len(p.srcVars) > 0 {
		body, aux := slices.Clip(pq.Body), slices.Clip(pq.Aux)
		for _, s := range p.Sources {
			aux = append(aux, datalog.Fact(planSource, term.Atom(s)))
		}
		for _, sv := range p.srcVars {
			body = append(body, datalog.Lit(planSource, term.Var(sv)))
		}
		pq = prepareParsed(body, aux, pq.Vars)
	}
	esp := sp.Child("evaluate")
	rows, _, err := queryResult(ctx, v.Result(), pq)
	esp.SetInt("rows", int64(len(rows)))
	esp.End()
	if err != nil {
		return nil, p, fmt.Errorf("mediator: planned query: %w", err)
	}
	return &Answer{Vars: pq.Vars, Rows: rows, Missing: v.missing(), Stamp: v.stamp, Span: sp}, p, nil
}

// defaultVars extracts the output variables of a body in order of first
// occurrence, skipping underscore-prefixed ones.
func defaultVars(body []datalog.BodyElem) []string {
	var vars []string
	seen := map[string]bool{}
	for _, e := range body {
		var vs []string
		switch x := e.(type) {
		case datalog.Literal:
			vs = x.Vars(nil)
		case datalog.Aggregate:
			vs = x.Vars(nil)
		}
		for _, v := range vs {
			if !seen[v] && !strings.HasPrefix(v, "_") {
				seen[v] = true
				vars = append(vars, v)
			}
		}
	}
	return vars
}
