package datalog

import (
	"fmt"
	"slices"
	"sort"

	"modelmed/internal/obs"
	"modelmed/internal/term"
)

// deltaVariant is one semi-naive rewriting of a rule: the body reordered
// to start from the designated delta literal, so each incremental round
// enumerates the (small) delta first and joins outward from it.
type deltaVariant struct {
	ordered []BodyElem
	// deltaIdx is the position within ordered that reads from the delta
	// store (always 0 in variants produced by prepareRules).
	deltaIdx int
}

// preparedRule caches the safe evaluation order of a rule body together
// with its semi-naive delta variants, one per positive stored literal,
// and the compiled register program for each (nil entries fall back to
// the interpreter; see compile.go).
type preparedRule struct {
	rule     Rule
	headKey  string
	ordered  []BodyElem
	variants []deltaVariant

	compiled         *cProg
	compiledVariants []*cProg // aligned with variants
}

// prepareRules orders and compiles the rule bodies. opts may be nil;
// opts.Interpret skips compilation (every rule runs interpreted).
func prepareRules(rules []Rule, opts *Options) ([]preparedRule, error) {
	compile := opts == nil || !opts.Interpret
	out := make([]preparedRule, 0, len(rules))
	for _, r := range rules {
		if err := CheckRule(r); err != nil {
			return nil, err
		}
		pr := preparedRule{rule: r, headKey: r.Head.Key()}
		if len(r.Body) > 0 {
			ordered, err := OrderBody(r)
			if err != nil {
				return nil, err
			}
			pr.ordered = ordered
			if compile {
				pr.compiled = compileRule(r, ordered, -1)
			}
			for i, e := range ordered {
				l, ok := e.(Literal)
				if !ok || l.Neg || IsBuiltin(l.Pred, len(l.Args)) {
					continue
				}
				variant, err := orderWithFirst(ordered, i)
				if err != nil {
					// Fall back to the static order with the delta in
					// place; correct, just slower.
					variant = deltaVariant{ordered: ordered, deltaIdx: i}
				}
				pr.variants = append(pr.variants, variant)
				var cp *cProg
				if compile {
					cp = compileRule(r, variant.ordered, variant.deltaIdx)
				}
				pr.compiledVariants = append(pr.compiledVariants, cp)
			}
		}
		out = append(out, pr)
	}
	return out, nil
}

// orderWithFirst reorders body so that the positive literal at position
// first comes first, with the remaining elements re-ordered greedily
// under the bindings it provides.
func orderWithFirst(body []BodyElem, first int) (deltaVariant, error) {
	lead := body[first].(Literal)
	rest := make([]BodyElem, 0, len(body)-1)
	for i, e := range body {
		if i != first {
			rest = append(rest, e)
		}
	}
	bound := make(varSet)
	bound.add(lead.Vars(nil))
	orderedRest, _, err := orderElems(rest, bound)
	if err != nil {
		return deltaVariant{}, err
	}
	ordered := make([]BodyElem, 0, len(body))
	ordered = append(ordered, lead)
	ordered = append(ordered, orderedRest...)
	return deltaVariant{ordered: ordered, deltaIdx: 0}, nil
}

// evalCtx carries the state of one fixpoint computation.
type evalCtx struct {
	store  *Store // facts derived so far (read by positive literals)
	negCtx *Store // facts consulted by negative literals
	delta  *Store // restriction for the designated delta literal (nil = none)
	opts   *Options
	lim    *limiter // shared gas meter of the evaluation (nil = unlimited)
	gas    int      // head instantiations left in the local allotment

	newFacts   []derivedFact
	arena      []uint32 // slab backing the ID rows of newFacts
	rounds     int
	firings    int // rule body solutions found (for benchmarks)
	depthDrops int
}

// derivedFact is one queued derivation: the head predicate key and the
// interned-ID row. The ids slice points into the deriving context's
// arena and is only valid until that arena is reset — the fixpoint
// barrier copies it into the store before the next round.
type derivedFact struct {
	key string
	ids []uint32
}

// allocIDs hands out an n-ID row from the context's arena. When a slab
// fills, a fresh one is started; rows already handed out keep pointing
// into the old slab, so they stay valid.
func (ev *evalCtx) allocIDs(n int) []uint32 {
	if len(ev.arena)+n > cap(ev.arena) {
		// Slabs start small and double: a delta round that derives a
		// handful of facts must not pay for a bulk round's slab.
		ev.arena = make([]uint32, 0, max(2*cap(ev.arena), 256, n))
	}
	off := len(ev.arena)
	ev.arena = ev.arena[:off+n]
	return ev.arena[off : off+n : off+n]
}

// termDepth returns the nesting depth of t (constants and variables have
// depth 1).
func termDepth(t term.Term) int {
	if t.Kind() != term.KindCompound {
		return 1
	}
	max := 0
	for _, a := range t.Args() {
		if d := termDepth(a); d > max {
			max = d
		}
	}
	return max + 1
}

// deriveHead instantiates the rule head under s and queues the fact.
func (ev *evalCtx) deriveHead(headKey string, head Literal, s *term.Subst) error {
	if err := ev.spendGas(); err != nil {
		return err
	}
	ids := ev.allocIDs(len(head.Args))
	for i, a := range head.Args {
		t := s.Apply(a)
		if !t.IsGround() {
			return fmt.Errorf("datalog: internal: derived non-ground fact %s(%s)", head.Pred, t)
		}
		id := internTerm(t)
		if ev.opts.MaxTermDepth > 0 && depthOf(id) > int32(ev.opts.MaxTermDepth) {
			ev.depthDrops++
			return nil
		}
		ids[i] = id
	}
	ev.firings++
	ev.newFacts = append(ev.newFacts, derivedFact{key: headKey, ids: ids})
	return nil
}

// match enumerates all solutions of items[idx:] under s, invoking emit
// for each complete solution. deltaIdx designates the ordered-body
// position that must read from ev.delta instead of ev.store (-1 = none).
// This is the interpreted path; rules inside the compiled fragment run
// through cProg.run instead (see compile.go) with identical semantics
// and derivation order.
func (ev *evalCtx) match(items []BodyElem, idx, deltaIdx int, s *term.Subst, emit func(*term.Subst) error) error {
	if idx == len(items) {
		return emit(s)
	}
	switch e := items[idx].(type) {
	case Literal:
		if IsBuiltin(e.Pred, len(e.Args)) {
			trail, ok, err := evalBuiltin(e, s)
			if err != nil {
				s.Undo(trail)
				return err
			}
			if ok {
				err = ev.match(items, idx+1, deltaIdx, s, emit)
			}
			s.Undo(trail)
			return err
		}
		if e.Neg {
			args := s.ApplyAll(e.Args)
			for _, a := range args {
				if !a.IsGround() {
					return fmt.Errorf("datalog: internal: non-ground negative literal %s", e)
				}
			}
			if !ev.negCtx.Contains(e.Pred, args) {
				return ev.match(items, idx+1, deltaIdx, s, emit)
			}
			return nil
		}
		src := ev.store
		if idx == deltaIdx {
			src = ev.delta
		}
		rel := src.Rel(e.Key())
		if rel == nil || rel.Len() == 0 {
			return nil
		}
		// Arguments that are ground under s are resolved to term IDs
		// once: they choose the index probe (the most selective position
		// wins, and its candidates are kept so it is not probed twice)
		// and are then compared with each row by ID. Only the open
		// positions are materialized as terms, one row at a time into
		// buffers of this frame — no term copy of the relation is ever
		// made, and deeper frames, which run while this one is still
		// iterating, have their own.
		var (
			gidBuf         [8]uint32
			patBuf, rowBuf [8]term.Term
		)
		gids, pat, row := gidBuf[:0], patBuf[:0], rowBuf[:0] // gids[pos] == unboundID: open
		probed := false
		var best rowSet
		for pos, a := range e.Args {
			w := s.Apply(a)
			if !w.IsGround() {
				gids = append(gids, unboundID)
				pat = append(pat, a)
				continue
			}
			id, ok := lookupID(w)
			if !ok {
				return nil // a term that was never interned matches no stored row
			}
			gids = append(gids, id)
			if sel := rel.probe(pos, id); !probed || sel.size() < best.size() {
				best, probed = sel, true
				if sel.size() == 0 {
					return nil
				}
			}
		}
		iterate := func(ids []uint32) error {
			for pos, g := range gids {
				if g != unboundID && ids[pos] != g {
					return nil
				}
			}
			row = row[:0]
			for pos, g := range gids {
				if g == unboundID {
					row = append(row, termOf(ids[pos]))
				}
			}
			trail, ok := s.MatchTuple(pat, row)
			var err error
			if ok {
				err = ev.match(items, idx+1, deltaIdx, s, emit)
			}
			s.Undo(trail)
			return err
		}
		if probed {
			return rel.eachAt(best, iterate)
		}
		return rel.each(iterate)
	case Aggregate:
		return ev.evalAggregate(e, s, func(s2 *term.Subst) error {
			return ev.match(items, idx+1, deltaIdx, s2, emit)
		})
	}
	return fmt.Errorf("datalog: internal: unknown body element %T", items[idx])
}

// aggGroup accumulates the distinct (value, key...) contributions of one
// aggregation group. While every term a contribution has is interned,
// the group appends the contribution's IDs to ids, a few bytes each,
// and sorts and compacts them whenever they double, so it holds at most
// about twice its distinct contributions. The first contribution with a
// term that is not interned — a value built inside the aggregate body
// by is or = — moves the group to a set of term keys for good. Nothing
// is interned here: the table only grows, and a query's scratch values
// must not outlive it. Moving once, rather than per contribution, keeps
// a term that another engine interns meanwhile from being counted under
// both forms.
type aggGroup struct {
	groupTerms []term.Term
	stride     int      // terms per contribution: the value, then the keys
	ids        []uint32 // ID mode: contributions, distinct up to compacted
	compacted  int
	seen       map[string]struct{} // key mode (non-nil): the contributions' keys
	values     []term.Term         // key mode: the distinct contributions' values
}

// aggCompactMin is the size, in IDs, below which a group is not
// compacted before its fold.
const aggCompactMin = 256

// add records the contribution ts (the value, then the keys). kb is a
// scratch buffer, returned for reuse.
func (g *aggGroup) add(ts []term.Term, kb []byte) []byte {
	if g.seen == nil {
		n := len(g.ids)
		var ok bool
		if g.ids, ok = lookupRow(ts, g.ids); ok {
			if len(g.ids) >= max(2*g.compacted, aggCompactMin) {
				g.compact()
			}
			return kb
		}
		g.ids = g.ids[:n]
		g.seen = make(map[string]struct{})
		for i := 0; i < n; i += g.stride {
			kb = kb[:0]
			for _, id := range g.ids[i : i+g.stride] {
				kb = append(kb, termOf(id).Key()...)
			}
			g.addKey(kb, termOf(g.ids[i]))
		}
		g.ids = nil
	}
	kb = kb[:0]
	for _, t := range ts {
		kb = append(kb, t.Key()...)
	}
	g.addKey(kb, ts[0])
	return kb
}

func (g *aggGroup) addKey(k []byte, value term.Term) {
	if _, dup := g.seen[string(k)]; !dup {
		g.seen[string(k)] = struct{}{}
		g.values = append(g.values, value)
	}
}

// compact sorts ids by contribution and drops the duplicates, in place.
func (g *aggGroup) compact() {
	rows := flatRows{g.ids, g.stride}
	sort.Sort(rows)
	out := g.ids[:0]
	for i := 0; i < rows.Len(); i++ {
		if r := rows.row(i); len(out) == 0 || !slices.Equal(r, out[len(out)-g.stride:]) {
			out = append(out, r...)
		}
	}
	g.ids, g.compacted = out, len(out)
}

// fold computes op over the group's distinct contributions.
func (g *aggGroup) fold(op AggOp) (term.Term, error) {
	if g.seen != nil {
		return computeAggregate(op, g.values)
	}
	g.compact()
	if op == AggCount {
		return term.Int(int64(len(g.ids) / g.stride)), nil
	}
	vals := make([]term.Term, 0, len(g.ids)/g.stride)
	for i := 0; i < len(g.ids); i += g.stride {
		vals = append(vals, termOf(g.ids[i]))
	}
	return computeAggregate(op, vals)
}

// flatRows sorts a flat slice of fixed-width ID rows.
type flatRows struct {
	ids    []uint32
	stride int
}

func (f flatRows) Len() int           { return len(f.ids) / f.stride }
func (f flatRows) row(i int) []uint32 { return f.ids[i*f.stride : (i+1)*f.stride] }
func (f flatRows) Less(i, j int) bool { return slices.Compare(f.row(i), f.row(j)) < 0 }
func (f flatRows) Swap(i, j int) {
	a, b := f.row(i), f.row(j)
	for k := range a {
		a[k], b[k] = b[k], a[k]
	}
}

// evalAggregate enumerates the solutions of the aggregate's inner body
// under s, groups them, and invokes cont once per group with the group
// terms and result bound. Each inner solution is charged to the gas
// meter as a head instantiation is, so wrapping a join in an aggregate
// does not take its enumeration out of MaxDerivedFacts. Aggregated
// predicates are always in strictly lower strata (aggregation counts as
// a negative dependency), so reading from ev.store is sound. The group
// key and a contribution's dedup key are built in scratch buffers and
// looked up without a copy.
func (ev *evalCtx) evalAggregate(a Aggregate, s *term.Subst, cont func(*term.Subst) error) error {
	inner := make([]BodyElem, len(a.Body))
	for i, l := range a.Body {
		inner[i] = l
	}
	groups := make(map[string]*aggGroup)
	var kb []byte
	ts := make([]term.Term, 1+len(a.Key))
	err := ev.match(inner, 0, -1, s, func(s2 *term.Subst) error {
		if err := ev.spendGas(); err != nil {
			return err
		}
		kb = kb[:0]
		for _, g := range a.GroupBy {
			t := s2.Apply(g)
			if !t.IsGround() {
				return fmt.Errorf("datalog: non-ground group term in aggregate %s", a)
			}
			kb = append(kb, t.Key()...)
		}
		grp := groups[string(kb)]
		if grp == nil {
			gt := make([]term.Term, len(a.GroupBy))
			for i, g := range a.GroupBy {
				gt[i] = s2.Apply(g)
			}
			grp = &aggGroup{groupTerms: gt, stride: len(ts)}
			groups[string(kb)] = grp
		}
		ts[0] = s2.Apply(a.Value)
		if !ts[0].IsGround() {
			return fmt.Errorf("datalog: non-ground aggregated value in %s", a)
		}
		for i, k := range a.Key {
			ts[1+i] = s2.Apply(k)
			if !ts[1+i].IsGround() {
				return fmt.Errorf("datalog: non-ground aggregation key in %s", a)
			}
		}
		kb = grp.add(ts, kb)
		return nil
	})
	if err != nil {
		return err
	}
	// Deterministic group order.
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		grp := groups[k]
		result, err := grp.fold(a.Op)
		if err != nil {
			return fmt.Errorf("datalog: aggregate %s: %w", a, err)
		}
		var trail []string
		ok := true
		for i, g := range a.GroupBy {
			t, tok := s.Unify(g, grp.groupTerms[i])
			trail = append(trail, t...)
			if !tok {
				ok = false
				break
			}
		}
		if ok {
			t, tok := s.Unify(a.Result, result)
			trail = append(trail, t...)
			if tok {
				if err := cont(s); err != nil {
					s.Undo(trail)
					return err
				}
			}
		}
		s.Undo(trail)
	}
	return nil
}

// computeAggregate folds the distinct contributions of one group. It
// sorts values in place: a sum is taken in term order, so it has the
// same bits whatever order the contributions were found in.
func computeAggregate(op AggOp, values []term.Term) (term.Term, error) {
	if op == AggCount {
		return term.Int(int64(len(values))), nil
	}
	term.SortTerms(values)
	switch op {
	case AggMin:
		return values[0], nil
	case AggMax:
		return values[len(values)-1], nil
	case AggSum, AggAvg:
		var sum float64
		var isum int64
		allInt := true
		for _, v := range values {
			f, ok := v.Numeric()
			if !ok {
				return term.Term{}, fmt.Errorf("non-numeric value %s under %s", v, op)
			}
			sum += f
			if v.Kind() == term.KindInt {
				isum += v.IntVal()
			} else {
				allInt = false
			}
		}
		if op == AggAvg {
			return term.Float(sum / float64(len(values))), nil
		}
		if allInt {
			return term.Int(isum), nil
		}
		return term.Float(sum), nil
	}
	return term.Term{}, fmt.Errorf("unknown aggregate operator %s", op)
}

// evalJob is one independent unit of a fixpoint round: a rule body (or
// semi-naive delta variant) to enumerate against the round snapshot.
// Within a round the store, negCtx and delta are immutable — they are
// only mutated at the round barrier — so jobs are pure reads.
type evalJob struct {
	headKey  string
	head     Literal
	ordered  []BodyElem
	deltaIdx int
	compiled *cProg // nil: run interpreted
}

// run enumerates the job's body, queueing derived facts on ev. Compiled
// bodies run on the register executor; the rest on the interpreter.
func (j evalJob) run(ev *evalCtx) error {
	if j.compiled != nil {
		return j.compiled.run(ev)
	}
	s := term.NewSubst()
	return ev.match(j.ordered, 0, j.deltaIdx, s, func(s *term.Subst) error {
		return ev.deriveHead(j.headKey, j.head, s)
	})
}

// runJobs evaluates one round's jobs against the snapshot held by ev
// (store, negCtx, opts) with delta as the designated delta store, and
// returns the derived facts in job order. It reuses ev.newFacts and its
// arena, so the returned facts are only valid until the next call. rsp,
// when non-nil, records the round's job count. Both the fixpoint rounds
// and the incremental phases of ApplyDelta run on this.
func runJobs(jobs []evalJob, delta *Store, ev *evalCtx, rsp *obs.Span) ([]derivedFact, error) {
	rsp.SetInt("jobs", int64(len(jobs)))
	ev.delta = delta
	ev.newFacts = ev.newFacts[:0]
	ev.arena = ev.arena[:0]
	for _, j := range jobs {
		if err := j.run(ev); err != nil {
			return nil, err
		}
	}
	return ev.newFacts, nil
}

// fixpoint evaluates the prepared rules to a fixpoint over store, with
// negative literals answered from negCtx. It uses semi-naive evaluation
// unless opts.Naive is set. Returns the number of evaluation rounds.
//
// sp, when non-nil, receives one child span per round (job count, facts
// derived, delta size, rule firings). All instrumentation sits behind
// nil checks so a nil sp costs one branch per round.
//
// lim, when non-nil, is the evaluation's shared gas meter: every round
// is charged against it before it runs (MaxRounds + context), and the
// evaluation context draws fact gas from it in strides (MaxDerivedFacts
// + context), so a cancelled request stops mid-stratum and a budget trip
// surfaces as *ErrBudgetExceeded. A nil lim costs one nil check per
// round and per derivation.
func fixpoint(rules []preparedRule, store, negCtx *Store, opts *Options, lim *limiter, sp *obs.Span) (rounds int, firings int, err error) {
	ev := &evalCtx{store: store, negCtx: negCtx, opts: opts, lim: lim}
	derivedTotal := 0
	if sp != nil || opts.Counters != nil {
		sp.SetInt("rules", int64(len(rules)))
		defer func() {
			sp.SetInt("rounds", int64(ev.rounds))
			sp.SetInt("firings", int64(ev.firings))
			if c := opts.Counters; c != nil {
				c.Add("datalog.rounds", int64(ev.rounds))
				c.Add("datalog.firings", int64(ev.firings))
				c.Add("datalog.facts_derived", int64(derivedTotal))
				c.Add("datalog.depth_drops", int64(ev.depthDrops))
			}
		}()
	}

	// Round 0 facts.
	for _, pr := range rules {
		if len(pr.rule.Body) == 0 {
			store.Insert(pr.rule.Head.Pred, pr.rule.Head.Args)
		}
	}
	// Job lists are fixed across rounds: every bodied rule once for round
	// 0 (and every naive round), every delta variant for semi-naive
	// rounds.
	fullJobs, deltaJobs := ruleJobs(rules)
	if opts.Naive {
		deltaJobs = fullJobs
	}

	// endRound closes a round span with the barrier-side metrics.
	endRound := func(rsp *obs.Span, derived, deltaSize, prevFirings int) {
		if rsp == nil {
			return
		}
		rsp.SetInt("derived", int64(derived))
		rsp.SetInt("delta", int64(deltaSize))
		rsp.SetInt("firings", int64(ev.firings-prevFirings))
		rsp.End()
	}

	// Round 0: evaluate every rule once against the full store (no delta
	// restriction).
	if err := lim.round(); err != nil {
		return 0, 0, err
	}
	rsp := sp.Child("round 0")
	newFacts, err := runJobs(fullJobs, nil, ev, rsp)
	if err != nil {
		rsp.End()
		return ev.rounds, ev.firings, err
	}
	delta := NewStore()
	derived := 0
	for _, f := range newFacts {
		if store.InsertKeyIDs(f.key, len(f.ids), f.ids) {
			delta.InsertKeyIDs(f.key, len(f.ids), f.ids)
			derived++
		}
	}
	derivedTotal += derived
	endRound(rsp, derived, delta.Size(), 0)
	ev.rounds = 1

	for delta.Size() > 0 {
		if opts.MaxIterations > 0 && ev.rounds > opts.MaxIterations {
			return ev.rounds, ev.firings, fmt.Errorf("datalog: fixpoint exceeded %d rounds (possible non-termination via function symbols)", opts.MaxIterations)
		}
		if err := lim.round(); err != nil {
			return ev.rounds, ev.firings, err
		}
		prevFirings := ev.firings
		rsp := sp.Childf("round %d", ev.rounds)
		newFacts, err := runJobs(deltaJobs, delta, ev, rsp)
		if err != nil {
			rsp.End()
			return ev.rounds, ev.firings, err
		}
		next := NewStore()
		derived = 0
		for _, f := range newFacts {
			if store.InsertKeyIDs(f.key, len(f.ids), f.ids) {
				next.InsertKeyIDs(f.key, len(f.ids), f.ids)
				derived++
			}
		}
		derivedTotal += derived
		delta = next
		endRound(rsp, derived, delta.Size(), prevFirings)
		ev.rounds++
	}
	return ev.rounds, ev.firings, nil
}
