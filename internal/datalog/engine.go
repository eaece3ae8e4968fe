package datalog

import (
	"context"
	"fmt"
	"slices"
	"sync/atomic"

	"modelmed/internal/obs"
	"modelmed/internal/term"
)

// Options configure engine evaluation.
type Options struct {
	// MaxIterations caps semi-naive rounds per fixpoint and alternating
	// fixpoint steps, guarding against non-termination introduced by
	// function symbols. 0 means the default (100000).
	MaxIterations int
	// MaxTermDepth drops derived facts whose terms nest deeper than this,
	// bounding Skolem-term growth. 0 means the default (24).
	MaxTermDepth int
	// Limits is the per-evaluation gas budget (max derived facts, max
	// rounds), enforced cooperatively inside the evaluation loops
	// together with the context passed to RunCtx/ApplyDeltaCtx/QueryCtx.
	// The zero value is unlimited. A tripped budget returns
	// *ErrBudgetExceeded; a fired context returns the context's error.
	// See limits.go.
	Limits Limits
	// Naive disables semi-naive evaluation (every rule re-evaluated in
	// full each round). Used by the ablation benchmarks.
	Naive bool
	// Interpret disables rule compilation: every rule body runs on the
	// tree-walking interpreter instead of the compiled register
	// executor. Used by the ablation benchmarks and the differential
	// tests that hold the two paths to identical results.
	Interpret bool
	// RequireStratified makes Run fail on non-stratified programs instead
	// of falling back to the well-founded semantics.
	RequireStratified bool
	// Trace, when non-nil, receives the evaluation's span tree: a
	// "datalog.run" child carrying one span per stratum with per-round
	// children recording rules fired and delta sizes. Nil — the default —
	// disables tracing; the disabled path costs one nil check per round
	// (see DESIGN.md, "Observability").
	Trace *obs.Span
	// Counters, when non-nil, accumulates monotonic evaluation counters
	// (datalog.rounds, datalog.firings, datalog.facts_derived,
	// datalog.depth_drops). Nil disables them at the same cost as Trace.
	Counters *obs.Counters
}

// ResolvedWorkers returns 1: evaluation runs on the calling goroutine.
// It is kept only because benchmark reports stamp it.
func (o *Options) ResolvedWorkers() int { return 1 }

func (o *Options) withDefaults() Options {
	out := Options{}
	if o != nil {
		out = *o
	}
	if out.MaxIterations == 0 {
		out.MaxIterations = 100000
	}
	if out.MaxTermDepth == 0 {
		out.MaxTermDepth = 24
	}
	return out
}

// Engine accepts a program (rules and facts) and evaluates it bottom-up:
// stratum by stratum with semi-naive evaluation when the program is
// stratified, and by the alternating-fixpoint construction of the
// well-founded semantics otherwise.
type Engine struct {
	opts  Options
	rules []Rule
	// edb is the extensional database the next run starts from: AddFact
	// and SeedEDB load it, a run hands it to its Result (takeEDB), and a
	// delta leaves it a layer over the new result's.
	edb *Store
	// cachedPlan is the evaluation plan of rules (see plan.go); AddRule
	// drops it.
	cachedPlan *evalPlan
	// explained holds the rules with their bodies ordered, as Explain
	// walks them; filled by the first Explain, dropped by AddRule.
	explained atomic.Pointer[[]preparedRule]
}

// NewEngine returns an engine with the given options (nil for defaults).
func NewEngine(opts *Options) *Engine {
	return &Engine{opts: opts.withDefaults(), edb: NewStore()}
}

// AddRule adds a rule after checking its safety.
func (e *Engine) AddRule(r Rule) error {
	if err := CheckRule(r); err != nil {
		return err
	}
	e.rules = append(e.rules, r)
	e.cachedPlan = nil
	e.explained.Store(nil)
	return nil
}

// AddRules adds several rules, stopping at the first unsafe one.
func (e *Engine) AddRules(rs ...Rule) error {
	for _, r := range rs {
		if err := e.AddRule(r); err != nil {
			return err
		}
	}
	return nil
}

// AddProgram adds all rules of p.
func (e *Engine) AddProgram(p *Program) error { return e.AddRules(p.Rules...) }

// AddFact inserts a ground extensional fact.
func (e *Engine) AddFact(pred string, args ...term.Term) error {
	for _, a := range args {
		if !a.IsGround() {
			return fmt.Errorf("datalog: non-ground fact %s%s", pred, term.FormatTuple(args))
		}
	}
	e.edb.Insert(pred, args)
	return nil
}

// FactCount returns the number of extensional facts loaded.
func (e *Engine) FactCount() int { return e.edb.Size() }

// takeEDB hands the engine's EDB to a result and keeps loading facts
// into a layer over it.
func (e *Engine) takeEDB() *Store {
	edb := e.edb
	e.edb = edb.Clone()
	return edb
}

// SeedEDB bulk-loads every fact of s into the extensional database at
// the interned-ID level, skipping the per-fact groundness check of
// AddFact. It is the warm-restore fast path: the store comes from a
// checksummed snapshot this process (or a twin of it) wrote from its
// own EDB, so the facts are ground by construction.
func (e *Engine) SeedEDB(s *Store) { s.MergeInto(e.edb) }

// Restore attaches a previously materialized store — typically one
// loaded from a durable snapshot — to this engine as if Run had
// produced it. The caller must have loaded the engine with the same
// rules and the same extensional facts the store was materialized
// under; the returned result then supports Update/ApplyDelta exactly
// like a freshly evaluated one. Only stratified materializations are
// restorable (a well-founded result carries an Undefined store the
// snapshot format does not).
func (e *Engine) Restore(store *Store) *Result {
	return &Result{Store: store, Stratified: true, eng: e, edb: e.takeEDB()}
}

// Extend evaluates rules over r's store as a read-only base and returns
// a result whose store layers the relations they derive over that base:
// the per-query layer of one query's auxiliary rules. Every rule head
// must be a predicate the base neither holds nor derives, and the base
// must have no undefined atoms. The rules run stratified, under ctx and
// the Limits of the engine that produced r. Extend writes nothing of r,
// so concurrent readers of r may each extend it.
func (r *Result) Extend(ctx context.Context, rules []Rule) (*Result, error) {
	if r.Undefined != nil && r.Undefined.Size() > 0 {
		return nil, fmt.Errorf("datalog: extend: the base has undefined atoms")
	}
	e := NewEngine(nil)
	if r.eng != nil {
		// Not Trace and Counters: the owner of r's engine retargets
		// them (SetObs) while readers extend r.
		o := &r.eng.opts
		e.opts = Options{MaxIterations: o.MaxIterations, MaxTermDepth: o.MaxTermDepth,
			Limits: o.Limits, Naive: o.Naive, Interpret: o.Interpret}
	}
	for _, rule := range rules {
		h := rule.Head
		derived := r.eng != nil && slices.ContainsFunc(r.eng.rules, func(b Rule) bool {
			return b.Head.Pred == h.Pred && len(b.Head.Args) == len(h.Args)
		})
		if derived || r.Store.Rel(h.Key()) != nil {
			return nil, fmt.Errorf("datalog: extend: %s is a predicate of the base", h.Key())
		}
	}
	if err := e.AddRules(rules...); err != nil {
		return nil, err
	}
	p := e.plan()
	if !p.stratified || p.aggCycle {
		return nil, fmt.Errorf("datalog: extend: %w", ErrNotStratified)
	}
	return e.runStratified(p, r.Store, newLimiter(ctx, e.opts.Limits), nil)
}

// SetObs retargets the engine's trace span and counters. Long-lived
// engines (the mediator's materialization cache) use this to attach
// each incremental update's spans to the span tree of the operation
// that triggered it rather than to the long-dead span of the original
// full run.
func (e *Engine) SetObs(sp *obs.Span, c *obs.Counters) {
	e.opts.Trace = sp
	e.opts.Counters = c
}

// Result is the outcome of evaluating a program.
type Result struct {
	// Store holds all true facts (extensional and derived).
	Store *Store
	// Undefined holds atoms that are undefined under the well-founded
	// semantics; nil for stratified programs.
	Undefined *Store
	// Stratified reports which evaluation path ran.
	Stratified bool
	// Rounds is the total number of semi-naive rounds across strata (or
	// across all Γ computations for the well-founded path).
	Rounds int
	// Firings is the total number of rule-body solutions found; an
	// ablation metric comparing naive and semi-naive evaluation.
	Firings int
	// Delta describes the incremental work when this result was produced
	// by ApplyDelta/Update; nil for full evaluations.
	Delta *DeltaStats

	// eng is the engine that produced the result, enabling Update.
	eng *Engine
	// edb is the extensional database the result was evaluated over.
	// Like Store, it is never written once the result exists.
	edb *Store
}

// Run evaluates the program.
func (e *Engine) Run() (*Result, error) {
	return e.RunCtx(context.Background())
}

// RunCtx evaluates the program under the caller's context and the
// engine's Limits: the budget and the context are checked once per
// semi-naive round plus every gasStride derived facts inside a round,
// on both the compiled and interpreted paths, so a cancelled request
// stops the fixpoint mid-stratum instead of running it to completion.
// A tripped budget returns *ErrBudgetExceeded, a fired context the
// context's own error; the engine's EDB is untouched either way (the
// evaluation derives into a clone), so the engine stays usable.
func (e *Engine) RunCtx(ctx context.Context) (*Result, error) {
	return e.run(ctx, e.takeEDB())
}

// run evaluates the program over edb, which it does not write.
func (e *Engine) run(ctx context.Context, edb *Store) (*Result, error) {
	sp := e.opts.Trace.Child("datalog.run")
	defer sp.End()
	sp.SetInt("rules", int64(len(e.rules)))
	sp.SetInt("edb_facts", int64(edb.Size()))
	lim := newLimiter(ctx, e.opts.Limits)
	p := e.plan()
	if p.aggCycle {
		return nil, errAggCycle
	}
	if p.stratified {
		sp.SetStr("mode", "stratified")
		return e.runStratified(p, edb, lim, sp)
	}
	if e.opts.RequireStratified {
		return nil, fmt.Errorf("%w and RequireStratified is set", ErrNotStratified)
	}
	if hasAggregates(e.rules) {
		return nil, fmt.Errorf("%w: well-founded fallback does not support aggregation", ErrNotStratified)
	}
	sp.SetStr("mode", "well-founded")
	return e.runWellFounded(edb, lim, sp)
}

func hasAggregates(rules []Rule) bool {
	for _, r := range rules {
		for _, b := range r.Body {
			if _, ok := b.(Aggregate); ok {
				return true
			}
		}
	}
	return false
}

func (e *Engine) runStratified(p *evalPlan, edb *Store, lim *limiter, sp *obs.Span) (*Result, error) {
	store := edb.Clone()
	res := &Result{Store: store, Stratified: true, eng: e, edb: edb}
	for lvl, st := range p.strata {
		if len(st.rules) == 0 {
			continue
		}
		ssp := sp.Childf("stratum %d", lvl)
		ssp.SetInt("rules", int64(len(st.rules)))
		if err := st.prepare(&e.opts); err != nil {
			return nil, err
		}
		// Within a stratum, negated and aggregated predicates are fully
		// computed (they live in strictly lower strata), so negation is
		// answered from the same store.
		rounds, firings, err := fixpoint(st.prepared, store, store, &e.opts, lim, ssp)
		ssp.End()
		res.Rounds += rounds
		res.Firings += firings
		if err != nil {
			return res, err
		}
	}
	return res, nil
}

// runWellFounded computes the well-founded model by the alternating
// fixpoint: Γ(I) is the least model of the program with negative literals
// answered from I; the sequence T0=Γ(U∞ start), U0=Γ(T0), ... alternates
// between underestimates (true facts) and overestimates (possible facts)
// and converges because Γ is antimonotone. True = lfp(Γ²); Undefined =
// Γ(True) − True.
func (e *Engine) runWellFounded(edb *Store, lim *limiter, sp *obs.Span) (*Result, error) {
	prepared, err := prepareRules(e.rules, &e.opts)
	if err != nil {
		return nil, err
	}
	res := &Result{Stratified: false, eng: e, edb: edb}
	nGamma := 0
	gamma := func(negCtx *Store) (*Store, error) {
		gsp := sp.Childf("gamma %d", nGamma)
		nGamma++
		store := edb.Clone()
		rounds, firings, err := fixpoint(prepared, store, negCtx, &e.opts, lim, gsp)
		gsp.End()
		res.Rounds += rounds
		res.Firings += firings
		return store, err
	}
	// U := Γ(∅): everything derivable when all negations succeed.
	over, err := gamma(NewStore())
	if err != nil {
		return res, err
	}
	under := NewStore()
	for i := 0; ; i++ {
		if i > e.opts.MaxIterations {
			return res, fmt.Errorf("datalog: alternating fixpoint exceeded %d steps", e.opts.MaxIterations)
		}
		// The Γ runs charge their own rounds; this only catches a context
		// firing between them.
		if err := lim.ctxErr(); err != nil {
			return res, err
		}
		newUnder, err := gamma(over)
		if err != nil {
			return res, err
		}
		newOver, err := gamma(newUnder)
		if err != nil {
			return res, err
		}
		doneUnder := newUnder.Size() == under.Size()
		doneOver := newOver.Size() == over.Size()
		under, over = newUnder, newOver
		if doneUnder && doneOver {
			break
		}
	}
	res.Store = under
	res.Undefined = diffStore(over, under)
	return res, nil
}

// diffStore returns the facts in a that are not in b.
func diffStore(a, b *Store) *Store {
	out := NewStore()
	for _, k := range a.Keys() {
		ra := a.Rel(k)
		rb := b.Rel(k)
		if ra == rb {
			continue // shared via copy-on-write: identical contents
		}
		_ = ra.each(func(row []uint32) error {
			if rb == nil || !rb.ContainsIDs(row) {
				out.Ensure(k, ra.Arity()).InsertIDs(row)
			}
			return nil
		})
	}
	return out
}

// Holds reports whether the ground fact pred(args...) is true in the
// result.
func (r *Result) Holds(pred string, args ...term.Term) bool {
	return r.Store.Contains(pred, args)
}

// IsUndefined reports whether the ground fact is undefined under the
// well-founded semantics (always false for stratified programs).
func (r *Result) IsUndefined(pred string, args ...term.Term) bool {
	return r.Undefined != nil && r.Undefined.Contains(pred, args)
}
