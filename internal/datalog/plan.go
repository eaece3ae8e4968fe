package datalog

import "fmt"

// evalPlan is everything evaluation derives from the rule set alone:
// the dependency analysis, the stratification verdict, and per stratum
// the rules and — each filled on first use — their ordered and
// compiled bodies (prepare) and what only the delta path reads
// (prepareDelta). The engine caches one plan and drops it when a rule
// is added, so a delta against an unchanged program pays for none of it
// again; Run reads the same plan.
type evalPlan struct {
	scc        *sccResult
	stratified bool
	aggCycle   bool
	// strata holds the strata in evaluation order, lowest level first:
	// one per level, or two where splitLevel puts a level's aggregate
	// rules ahead of its other rules (empty unless the program is
	// stratified).
	strata []*stratumPlan
	// headLevel maps each derived predicate to the stratum that owns it.
	// Filled by prepareDelta.
	headLevel map[string]int
}

// errAggCycle rejects a program whose aggregate reads its own stratum.
var errAggCycle = fmt.Errorf("datalog: aggregation through recursion is not supported")

// stratumPlan is one stratum of an evalPlan.
type stratumPlan struct {
	rules []Rule
	// fold is the re-fold plan of a stratum of aggregate rules in shape
	// (nil: none; see splitLevel).
	fold *aggFold

	// Filled by prepare.
	prepared []preparedRule

	// Filled by evalPlan.prepareDelta: the predicate keys the rule
	// bodies read (positive, negative and inside aggregates), whether
	// any rule aggregates, and the head predicate keys with their arity.
	reads  map[string]struct{}
	hasAgg bool
	heads  map[string]int

	// Filled by prepareDRed.
	deltaJobs   []evalJob
	rulesByHead map[string][]preparedRule
}

// plan returns the engine's cached evaluation plan, building it on
// first use after a rule change.
func (e *Engine) plan() *evalPlan {
	if e.cachedPlan != nil {
		return e.cachedPlan
	}
	scc := tarjanSCC(buildDepGraph(e.rules))
	p := &evalPlan{scc: scc}
	p.stratified, p.aggCycle = scc.stratify(e.rules)
	if p.stratified && !p.aggCycle {
		for _, rules := range scc.strata(e.rules) {
			p.strata = append(p.strata, splitLevel(rules)...)
		}
	}
	e.cachedPlan = p
	return p
}

// prepareDelta fills, once, what ApplyDelta needs to route a change to
// the strata it touches.
func (p *evalPlan) prepareDelta() {
	if p.headLevel != nil {
		return
	}
	p.headLevel = make(map[string]int)
	for lvl, st := range p.strata {
		st.reads, st.hasAgg = stratumReads(st.rules)
		st.heads = make(map[string]int)
		for _, r := range st.rules {
			k := r.Head.Key()
			st.heads[k] = len(r.Head.Args)
			if _, ok := p.headLevel[k]; !ok {
				p.headLevel[k] = lvl
			}
		}
	}
}

// prepare orders and compiles the stratum's rules the first time the
// stratum is evaluated; untouched strata never pay for it.
func (st *stratumPlan) prepare(opts *Options) error {
	if st.prepared != nil || len(st.rules) == 0 {
		return nil
	}
	prepared, err := prepareRules(st.rules, opts)
	if err != nil {
		return err
	}
	st.prepared = prepared
	return nil
}

// prepareDRed fills, once, the semi-naive job list and the per-head
// rule index delete-and-rederive runs on.
func (st *stratumPlan) prepareDRed() {
	if st.rulesByHead != nil {
		return
	}
	_, st.deltaJobs = ruleJobs(st.prepared)
	st.rulesByHead = make(map[string][]preparedRule)
	for _, pr := range st.prepared {
		st.rulesByHead[pr.headKey] = append(st.rulesByHead[pr.headKey], pr)
	}
}

// ruleJobs returns the job lists of a prepared rule set, fixed across
// rounds: every bodied rule once (round 0 and every naive round) and
// every semi-naive delta variant.
func ruleJobs(rules []preparedRule) (full, delta []evalJob) {
	for _, pr := range rules {
		if len(pr.rule.Body) == 0 {
			continue
		}
		full = append(full, evalJob{headKey: pr.headKey, head: pr.rule.Head, ordered: pr.ordered, deltaIdx: -1, compiled: pr.compiled})
		for vi, va := range pr.variants {
			delta = append(delta, evalJob{headKey: pr.headKey, head: pr.rule.Head, ordered: va.ordered, deltaIdx: va.deltaIdx, compiled: pr.compiledVariants[vi]})
		}
	}
	return full, delta
}

// stratumReads collects the predicate keys a stratum's rule bodies read
// (positive, negative and inside aggregates), and whether any rule
// aggregates.
func stratumReads(stratum []Rule) (reads map[string]struct{}, hasAgg bool) {
	reads = make(map[string]struct{})
	for _, r := range stratum {
		for _, el := range r.Body {
			switch b := el.(type) {
			case Literal:
				if !IsBuiltin(b.Pred, len(b.Args)) {
					reads[b.Key()] = struct{}{}
				}
			case Aggregate:
				hasAgg = true
				for _, l := range b.Body {
					if !IsBuiltin(l.Pred, len(l.Args)) {
						reads[l.Key()] = struct{}{}
					}
				}
			}
		}
	}
	return reads, hasAgg
}
