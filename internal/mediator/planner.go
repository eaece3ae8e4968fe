package mediator

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"

	"modelmed/internal/datalog"
	"modelmed/internal/domainmap"
	"modelmed/internal/flogic"
	"modelmed/internal/gcm"
	"modelmed/internal/obs"
	"modelmed/internal/parser"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// The planner generalizes the Section 5 query plan to arbitrary
// conjunctive queries over the mediated vocabulary: it derives, from the
// query text alone, (i) which sources can contribute at all — via the
// semantic index, when every source position is constrained by ground
// anchor concepts — and (ii) which selections can be pushed down to the
// wrappers, loading only the matching objects instead of materializing
// the whole federation.

// PushdownStep records one source access of a plan.
type PushdownStep struct {
	Source     string
	Class      string
	Selections []wrapper.Selection
	// Pushed reports whether the wrapper executed the selections (true)
	// or the mediator had to scan and filter (false).
	Pushed bool
	// Returned is the number of objects loaded.
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
	// Pushdowns are the planned per-source accesses (filled during
	// execution with Pushed/Returned).
	Pushdowns []PushdownStep
	// Reports are the per-source fault-tolerance outcomes of the
	// execution (nil when the layer is disabled). These are the reports
	// of *this* execution alone; the mediator-level SourceReports merges
	// them by source across queries.
	Reports []SourceReport
	// Trace is the human-readable plan log.
	Trace []string
	// Span is the execution's span tree (nil when tracing is off), with
	// rule-cone/pushdown/full-load/evaluate children.
	Span *obs.Span
}

func (p *QueryPlan) tracef(format string, args ...interface{}) {
	p.Trace = append(p.Trace, fmt.Sprintf(format, args...))
}

// sourceConstraint describes what the planner knows about one source
// variable: per anchor literal, the set of sources allowed by that
// literal's concept (nil set = the literal gives no constraint).
type sourceConstraint struct {
	allowed []map[string]bool
	open    bool // some anchor literal on this variable is unconstrained
	hasAny  bool // the variable occurs at a source position at all
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
			set := map[string]bool{}
			for _, c := range concepts {
				set[c] = true
			}
			var inter []string
			for _, c := range cur {
				if set[c] {
					inter = append(inter, c)
				}
			}
			out[v] = inter
			return
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
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		return nil, fmt.Errorf("mediator: plan: %w", err)
	}
	if err := m.ValidateVocabulary(body, aux); err != nil {
		return nil, err
	}
	p := &QueryPlan{Body: body, Aux: aux}

	// Pruning is only sound when the query touches source data solely
	// through the source vocabulary: a view predicate may read any
	// source.
	if pred := m.firstViewPred(body); pred != "" {
		p.tracef("query uses view/derived predicate %s; no source pruning", pred)
		p.Restricted = false
		p.Sources = m.Sources()
		p.Pushdowns = m.extractPushdowns(body, p)
		return p, nil
	}

	domains := m.conceptDomains(body)
	bySrcVar := map[string]*sourceConstraint{}
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
			sc := bySrcVar[srcArg.Name()]
			if sc == nil {
				sc = &sourceConstraint{}
				bySrcVar[srcArg.Name()] = sc
			}
			sc.hasAny = true
			if l.Pred == PredAnchor && len(l.Args) == 3 {
				if set, ok := allowedFor(l.Args[2]); ok {
					sc.allowed = append(sc.allowed, set)
					continue
				}
			}
			// Non-anchor access or unconstrained concept: this literal
			// alone does not restrict the variable.
			if l.Pred != PredAnchor {
				continue
			}
			sc.open = true
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
		sc := bySrcVar[v]
		if len(sc.allowed) == 0 {
			unconstrained = true
			p.tracef("source variable %s is unconstrained; no source pruning", v)
			continue
		}
		inter := sc.allowed[0]
		for _, set := range sc.allowed[1:] {
			next := map[string]bool{}
			for s := range inter {
				if set[s] {
					next[s] = true
				}
			}
			inter = next
		}
		var names []string
		for s := range inter {
			names = append(names, s)
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
// rules — the untrusted-input gate in front of Plan/ExecutePlan and of
// a served query.
func (m *Mediator) ValidateVocabulary(body []datalog.BodyElem, aux []datalog.Rule) error {
	heads := derivedHeads(m.base.Load().views, aux)
	var bad []string
	seen := map[string]bool{}
	var walk func(es []datalog.BodyElem)
	walk = func(es []datalog.BodyElem) {
		for _, e := range es {
			switch x := e.(type) {
			case datalog.Literal:
				if datalog.IsBuiltin(x.Pred, len(x.Args)) || mediatedVocab[x.Pred] || heads[x.Pred] || seen[x.Pred] {
					continue
				}
				seen[x.Pred] = true
				bad = append(bad, x.Pred)
			case datalog.Aggregate:
				inner := make([]datalog.BodyElem, len(x.Body))
				for i, l := range x.Body {
					inner[i] = l
				}
				walk(inner)
			}
		}
	}
	walk(body)
	// Auxiliary rule bodies face the same gate: a negated group over an
	// unknown predicate is just as silently empty.
	for _, r := range aux {
		walk(r.Body)
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("mediator: plan: %w(s) %s: not a source/domain-map/GCM predicate, registered view, or query-local rule", ErrUnknownPredicate, strings.Join(bad, ", "))
}

// firstViewPred returns the first body predicate that is a registered
// view head (or any derived predicate outside the known mediated
// vocabulary), or "" if the query stays within the source/DM/GCM
// vocabulary.
func (m *Mediator) firstViewPred(body []datalog.BodyElem) string {
	known := mediatedVocab
	var check func(es []datalog.BodyElem) string
	check = func(es []datalog.BodyElem) string {
		for _, e := range es {
			switch x := e.(type) {
			case datalog.Literal:
				if datalog.IsBuiltin(x.Pred, len(x.Args)) || known[x.Pred] {
					continue
				}
				return x.Pred
			case datalog.Aggregate:
				inner := make([]datalog.BodyElem, len(x.Body))
				for i, l := range x.Body {
					inner[i] = l
				}
				if pred := check(inner); pred != "" {
					return pred
				}
			}
		}
		return ""
	}
	return check(body)
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
		case PredAnchor:
			// anchor constrains concepts, not object loading; an anchor
			// on a ground source with an object var of unknown class
			// still requires that source's objects: mark full load when
			// the object var has no class elsewhere (resolved below).
		}
	}
	// An object variable without a ground class cannot be pushed; its
	// source must load fully. Same for anchor literals whose object
	// variables have no classed access.
	classedVars := map[objKey]bool{}
	for k := range classes {
		classedVars[k] = true
	}
	for _, e := range body {
		l, ok := e.(datalog.Literal)
		if !ok || l.Neg {
			continue
		}
		if (l.Pred == PredSrcVal || l.Pred == PredAnchor) &&
			len(l.Args) >= 2 && l.Args[0].Kind() == term.KindAtom && l.Args[1].Kind() == term.KindVar {
			k := objKey{l.Args[0].Name(), l.Args[1].Name()}
			if !classedVars[k] {
				fullLoad[k.src] = true
			}
		}
	}
	var steps []PushdownStep
	seen := map[string]bool{}
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
		step := PushdownStep{Source: k.src, Class: classes[k], Selections: sels[k]}
		steps = append(steps, step)
		seen[k.src] = true
		p.tracef("pushdown to %s: class %s, %d selection(s)", k.src, classes[k], len(sels[k]))
	}
	for src := range fullLoad {
		p.tracef("source %s loads fully (unclassed or tuple access)", src)
	}
	return steps
}

// ExecutePlan runs a plan: pushdown-loaded sources contribute only the
// matching objects; other candidate sources load fully; non-candidates
// are skipped. The residual query then evaluates over the restricted
// base (with the domain-map graph and views available as usual).
func (m *Mediator) ExecutePlan(p *QueryPlan, vars []string) (*Answer, error) {
	return m.ExecutePlanCtx(context.Background(), p, vars)
}

// ExecutePlanCtx is ExecutePlan under the caller's context: a server
// deadline or client disconnect cancels the pushdown and full-load
// fan-outs instead of orphaning them. Cancellation surfaces as the
// context's error and never counts against retries or breakers.
func (m *Mediator) ExecutePlanCtx(ctx context.Context, p *QueryPlan, vars []string) (*Answer, error) {
	sp := m.startSpan("mediator.execute_plan")
	defer m.endTrace(sp)
	p.Span = sp
	eo := m.opts.Engine
	eo.Trace = sp
	eo.Counters = m.counters()
	e := datalog.NewEngine(&eo)
	m.mu.Lock()
	ruleSets := [][]datalog.Rule{
		flogic.Axioms(),
		bridgeRules(),
		m.dm.Facts(),
		m.dm.RoleFacts(),
		domainmap.ClosureRules(),
		m.views,
		p.Aux,
	}
	m.mu.Unlock()
	// Evaluate only the dependency cone of the query: a query that never
	// touches dm_down skips the quadratic containment computation
	// entirely.
	csp := sp.Child("rule_cone")
	var static []datalog.Rule
	for _, rs := range ruleSets {
		static = append(static, rs...)
	}
	cone := datalog.RelevantRules(static, datalog.GoalKeys(p.Body))
	p.tracef("rule cone: %d of %d static rules relevant", len(cone), len(static))
	csp.SetInt("relevant", int64(len(cone)))
	csp.SetInt("static", int64(len(static)))
	csp.End()
	if err := e.AddRules(cone...); err != nil {
		return nil, fmt.Errorf("mediator: execute plan: %w", err)
	}

	pushedSources := map[string]bool{}
	for i := range p.Pushdowns {
		step := &p.Pushdowns[i]
		pushedSources[step.Source] = true
	}

	candidate := map[string]bool{}
	for _, s := range p.Sources {
		candidate[s] = true
	}
	g := m.newGuardCtx(ctx)
	// degrade reports whether an error is a source failure the plan
	// should absorb (drop the source, keep the query) rather than
	// propagate. Cancellation is never absorbed.
	degrade := func(err error) bool {
		return g != nil && !m.opts.FailFast && sourceDown(err) && !cancelled(err)
	}
	failed := map[string]bool{}

	// Pushdown loads: issue the wrapper queries concurrently — one task
	// per selected source access — then collect the results into the
	// engine in step order, so the loaded program (and the plan trace) is
	// independent of the fan-out's scheduling.
	psp := sp.Child("pushdown")
	pushResults := make([]*PushResult, len(p.Pushdowns))
	pushErrs := make([]error, len(p.Pushdowns))
	pushSpans := make([]*obs.Span, len(p.Pushdowns))
	if psp != nil {
		for i := range p.Pushdowns {
			step := &p.Pushdowns[i]
			if candidate[step.Source] {
				pushSpans[i] = psp.Child("push " + step.Source + "/" + step.Class)
			}
		}
	}
	fanOut(len(p.Pushdowns), runtime.GOMAXPROCS(0), func(i int) {
		step := &p.Pushdowns[i]
		if !candidate[step.Source] {
			return
		}
		pushResults[i], pushErrs[i] = m.pushSelect(g, step.Source, step.Class, step.Selections...)
		if pushSpans[i] != nil {
			if r := pushResults[i]; r != nil {
				pushSpans[i].SetInt("objects", int64(len(r.Objs)))
				if r.Pushed {
					pushSpans[i].SetStr("mode", "pushed")
				} else {
					pushSpans[i].SetStr("mode", "scan+filter")
				}
			}
			if pushErrs[i] != nil {
				pushSpans[i].SetStr("error", pushErrs[i].Error())
			}
			pushSpans[i].End()
		}
	})
	// First pass: spot exhausted sources, so a source whose later step
	// died never leaves the partial results of an earlier step behind —
	// degradation drops a source whole.
	for i := range p.Pushdowns {
		step := &p.Pushdowns[i]
		if !candidate[step.Source] || pushErrs[i] == nil {
			continue
		}
		if degrade(pushErrs[i]) {
			if !failed[step.Source] {
				g.markFailed(step.Source, pushErrs[i])
				failed[step.Source] = true
				m.counters().Add("mediator.sources_dropped", 1)
				p.tracef("source %s is down; degrading without it (%v)", step.Source, pushErrs[i])
			}
			continue
		}
		return nil, pushErrs[i]
	}
	for i := range p.Pushdowns {
		step := &p.Pushdowns[i]
		if !candidate[step.Source] || failed[step.Source] || pushErrs[i] != nil {
			continue
		}
		res := pushResults[i]
		step.Pushed = res.Pushed
		step.Returned = len(res.Objs)
		src, _ := m.Source(step.Source)
		if err := loadObjects(e, src, res.Objs); err != nil {
			return nil, err
		}
		p.tracef("loaded %d objects from %s (pushdown=%v)", len(res.Objs), step.Source, res.Pushed)
	}
	psp.End()

	// Full loads for candidate sources without (complete) pushdown
	// coverage: translate concurrently, collect in source order.
	m.mu.Lock()
	all := m.sortedSources()
	m.mu.Unlock()
	var full []*Source
	for _, s := range all {
		if candidate[s.Name] && !pushedSources[s.Name] {
			full = append(full, s)
		}
	}
	fsp := sp.Child("full_load")
	factSets := make([][]datalog.Rule, len(full))
	errs := eachSource(full, fsp, func(i int) (n int, err error) {
		factSets[i], err = guardedSourceFacts(g, full[i])
		return len(factSets[i]), err
	})
	fullIdx := 0
	for _, s := range all {
		if !candidate[s.Name] {
			p.tracef("skipped source %s (not selected by the semantic index)", s.Name)
			continue
		}
		if pushedSources[s.Name] {
			continue
		}
		facts, err := factSets[fullIdx], errs[fullIdx]
		fullIdx++
		if err != nil {
			if degrade(err) {
				g.markFailed(s.Name, err)
				failed[s.Name] = true
				m.counters().Add("mediator.sources_dropped", 1)
				p.tracef("source %s is down; degrading without it (%v)", s.Name, err)
				continue
			}
			fsp.End()
			return nil, err
		}
		if err := e.AddRules(facts...); err != nil {
			fsp.End()
			return nil, err
		}
		m.mu.Lock()
		e.SeedEDB(m.anchorsLocked(s))
		m.mu.Unlock()
		p.tracef("loaded source %s fully", s.Name)
	}
	g.annotate(fsp)
	fsp.End()
	// Per-query reports stay on the plan; the mediator-level view merges
	// them by source so concurrent plans don't clobber each other.
	p.Reports = g.Reports()
	m.mergeReports(p.Reports)

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// The per-query engine inherits the mediator's Limits; RunCtx checks
	// budget and context inside the fixpoint, so a runaway planned query
	// dies mid-stratum instead of holding its admission slot to the end.
	res, err := e.RunCtx(ctx)
	if err != nil {
		return nil, fmt.Errorf("mediator: execute plan: %w", err)
	}
	if len(vars) == 0 {
		vars = defaultVars(p.Body)
	}
	esp := sp.Child("evaluate")
	rows, err := res.QueryCtx(ctx, p.Body, vars)
	esp.SetInt("rows", int64(len(rows)))
	esp.End()
	if err != nil {
		return nil, fmt.Errorf("mediator: execute plan: %w", err)
	}
	return &Answer{Vars: vars, Rows: rows, Span: sp}, nil
}

// PlannedQuery plans and executes a query, returning the answer and the
// plan (with its trace).
func (m *Mediator) PlannedQuery(q string, vars ...string) (*Answer, *QueryPlan, error) {
	return m.PlannedQueryCtx(context.Background(), q, vars...)
}

// PlannedQueryCtx is PlannedQuery under the caller's context; see
// ExecutePlanCtx for the cancellation contract.
func (m *Mediator) PlannedQueryCtx(ctx context.Context, q string, vars ...string) (*Answer, *QueryPlan, error) {
	p, err := m.Plan(q)
	if err != nil {
		return nil, nil, err
	}
	ans, err := m.ExecutePlanCtx(ctx, p, vars)
	if err != nil {
		return nil, p, err
	}
	return ans, p, nil
}

// loadObjects emits the namespaced facts (and anchors) for a set of
// objects of one source.
func loadObjects(e *datalog.Engine, s *Source, objs []gcm.Object) error {
	if s == nil {
		return fmt.Errorf("mediator: pushdown into unknown source")
	}
	sn := term.Atom(s.Name)
	if s.Model != nil {
		if err := e.AddRules(s.Model.SchemaFacts()...); err != nil {
			return err
		}
		names := make([]string, 0, len(s.Model.Classes))
		for n := range s.Model.Classes {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, cn := range names {
			for _, sup := range s.Model.Classes[cn].Super {
				if err := e.AddFact(PredSrcSub, sn, term.Atom(cn), term.Atom(sup)); err != nil {
					return err
				}
			}
		}
	}
	for _, o := range objs {
		if err := e.AddFact(PredSrcObj, sn, o.ID, term.Atom(o.Class)); err != nil {
			return err
		}
		methods := make([]string, 0, len(o.Values))
		for mn := range o.Values {
			methods = append(methods, mn)
		}
		sort.Strings(methods)
		for _, mn := range methods {
			anchor := false
			if s.Model != nil {
				if sig, ok := modelMethod(s.Model, o.Class, mn); ok {
					anchor = sig.Anchor
				}
			}
			for _, v := range o.Values[mn] {
				if err := e.AddFact(PredSrcVal, sn, o.ID, term.Atom(mn), v); err != nil {
					return err
				}
				if anchor && v.Kind() == term.KindAtom {
					if err := e.AddFact(PredAnchor, sn, o.ID, v); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// modelMethod resolves a method signature walking superclasses.
func modelMethod(m *gcm.Model, class, method string) (gcm.MethodSig, bool) {
	seen := map[string]bool{}
	var walk func(string) (gcm.MethodSig, bool)
	walk = func(cn string) (gcm.MethodSig, bool) {
		if seen[cn] {
			return gcm.MethodSig{}, false
		}
		seen[cn] = true
		c := m.Classes[cn]
		if c == nil {
			return gcm.MethodSig{}, false
		}
		if sig, ok := c.Method(method); ok {
			return sig, true
		}
		for _, s := range c.Super {
			if sig, ok := walk(s); ok {
				return sig, true
			}
		}
		return gcm.MethodSig{}, false
	}
	return walk(class)
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
