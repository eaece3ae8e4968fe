package datalog

// Incremental view maintenance: ApplyDelta patches a previous Result
// under a batch of EDB insertions and deletions instead of re-running
// the whole fixpoint. Insertions propagate through the existing
// semi-naive delta machinery; deletions use delete-and-rederive (DRed):
// overdelete everything whose derivations may have used a deleted fact
// (joining against the old model, which is exact), then put back every
// overdeleted fact that still has an alternative derivation, then
// propagate the net insertions. An aggregate value cannot be patched
// from tuple deltas, so strata containing aggregates re-fold the groups
// a change touches (refold.go), or, out of shape, are recomputed
// wholesale; non-stratified programs fall back to a full well-founded
// run — DRed is only sound under stratified negation. See DESIGN.md,
// "Incremental maintenance".

import (
	"context"
	"fmt"

	"modelmed/internal/obs"
	"modelmed/internal/term"
)

// Delta is a batch of extensional (EDB) changes. Within one batch the
// last call wins: Add(f) after Del(f) leaves a net insertion and vice
// versa. Deletions are applied before additions.
type Delta struct {
	adds *Store
	dels *Store
}

// NewDelta returns an empty change batch.
func NewDelta() *Delta { return &Delta{adds: NewStore(), dels: NewStore()} }

// Add schedules the insertion of a ground fact.
func (d *Delta) Add(pred string, args ...term.Term) error {
	if err := checkGroundFact(pred, args); err != nil {
		return err
	}
	d.dels.Delete(pred, args)
	d.adds.Insert(pred, args)
	return nil
}

// Del schedules the removal of a ground fact.
func (d *Delta) Del(pred string, args ...term.Term) error {
	if err := checkGroundFact(pred, args); err != nil {
		return err
	}
	d.adds.Delete(pred, args)
	d.dels.Insert(pred, args)
	return nil
}

// AddFact schedules insertion of a fact given as an empty-body rule
// (the shape source translations produce).
func (d *Delta) AddFact(r Rule) error {
	if len(r.Body) != 0 {
		return fmt.Errorf("datalog: delta fact %s has a body", r)
	}
	return d.Add(r.Head.Pred, r.Head.Args...)
}

// DelFact schedules removal of a fact given as an empty-body rule.
func (d *Delta) DelFact(r Rule) error {
	if len(r.Body) != 0 {
		return fmt.Errorf("datalog: delta fact %s has a body", r)
	}
	return d.Del(r.Head.Pred, r.Head.Args...)
}

// Len returns the scheduled insertion and deletion counts.
func (d *Delta) Len() (adds, dels int) { return d.adds.Size(), d.dels.Size() }

// Empty reports whether the batch schedules no changes.
func (d *Delta) Empty() bool { return d.adds.Size() == 0 && d.dels.Size() == 0 }

func checkGroundFact(pred string, args []term.Term) error {
	for _, a := range args {
		if !a.IsGround() {
			return fmt.Errorf("datalog: non-ground delta fact %s%s", pred, term.FormatTuple(args))
		}
	}
	return nil
}

// DeltaStats describes the work an ApplyDelta call performed.
type DeltaStats struct {
	// AddsApplied / DelsApplied count the EDB changes that actually
	// changed the extensional database (no-op adds of present facts and
	// dels of absent facts are filtered out).
	AddsApplied int
	DelsApplied int
	// Overdeleted / Rederived count DRed phase work: facts removed by
	// overdeletion and the subset put back by rederivation.
	Overdeleted int
	Rederived   int
	// Inserted / Deleted are the net fact changes of the new model
	// relative to the previous one (EDB and derived).
	Inserted int
	Deleted  int
	// Rounds / Firings aggregate the semi-naive work across phases.
	Rounds  int
	Firings int
	// RecomputedStrata counts the aggregate strata that fell back to a
	// wholesale recompute; GroupsRefolded counts the aggregate groups
	// re-folded instead (see refold.go).
	RecomputedStrata int
	GroupsRefolded   int
	// Full reports that the call fell back to a full re-evaluation
	// (nil previous result, naive mode, or a non-stratified program).
	Full bool
}

// ApplyDelta applies the batch to prev's EDB and returns a new Result
// reflecting it. prev — a result previously produced by this engine
// with the same rule set, or nil for the engine's own EDB — is never
// written: the new result's EDB and store are layers over prev's, so
// readers of prev (a mediator serving queries from it) stay consistent
// while the update runs, and a failed update leaves nothing to take
// back. With a usable prev and a stratified program the update is
// incremental; otherwise the engine re-runs from scratch
// (DeltaStats.Full).
func (e *Engine) ApplyDelta(prev *Result, d *Delta) (*Result, error) {
	return e.ApplyDeltaCtx(context.Background(), prev, d)
}

// ApplyDeltaCtx is ApplyDelta under the caller's context and the
// engine's Limits: the DRed overdeletion and insertion waves and any
// recomputed strata charge the same gas meter as a full run, so a
// hostile or oversized delta degrades into a typed error instead of an
// unbounded patch. A failed update returns no result; the caller may
// go on from prev.
func (e *Engine) ApplyDeltaCtx(ctx context.Context, prev *Result, d *Delta) (*Result, error) {
	if d == nil {
		d = NewDelta()
	}
	base := e.edb
	if prev != nil && prev.edb != nil {
		base = prev.edb
	}
	stats := &DeltaStats{}
	effAdds, effDels := NewStore(), NewStore()
	d.dels.EachIDs(func(key string, arity int, row []uint32) {
		if base.ContainsKeyIDs(key, row) {
			effDels.InsertKeyIDs(key, arity, row)
		}
	})
	d.adds.EachIDs(func(key string, arity int, row []uint32) {
		if !base.ContainsKeyIDs(key, row) {
			effAdds.InsertKeyIDs(key, arity, row)
		}
	})
	edb := base.Clone()
	stats.AddsApplied = effAdds.Size()
	stats.DelsApplied = effDels.Size()

	var res *Result
	var err error
	p := e.plan()
	switch {
	case prev == nil || prev.Store == nil || !prev.Stratified || prev.Undefined != nil || e.opts.Naive:
		res, err = e.deltaFullRun(ctx, edb, effAdds, effDels, stats)
	case effAdds.Size() == 0 && effDels.Size() == 0:
		res = prev
	case p.aggCycle:
		err = errAggCycle
	case !p.stratified:
		res, err = e.deltaFullRun(ctx, edb, effAdds, effDels, stats)
	default:
		res, err = e.applyDeltaStratified(ctx, prev, edb, p, effAdds, effDels, stats)
	}
	if err != nil {
		return nil, err
	}
	e.edb = res.edb.Clone() // the next run starts where this delta left off
	return res, nil
}

// Update applies the batch through the engine that produced r.
func (r *Result) Update(d *Delta) (*Result, error) {
	if r.eng == nil {
		return nil, fmt.Errorf("datalog: result is not attached to an engine")
	}
	return r.eng.ApplyDelta(r, d)
}

// deltaFullRun is the fallback: a full evaluation over edb patched by
// the effective changes yields the post-delta model.
func (e *Engine) deltaFullRun(ctx context.Context, edb, effAdds, effDels *Store, stats *DeltaStats) (*Result, error) {
	effDels.EachIDs(func(key string, _ int, row []uint32) { edb.DeleteKeyIDs(key, row) })
	effAdds.EachIDs(func(key string, arity int, row []uint32) { edb.InsertKeyIDs(key, arity, row) })
	stats.Full = true
	if c := e.opts.Counters; c != nil {
		c.Add("datalog.delta_full_runs", 1)
	}
	res, err := e.run(ctx, edb)
	if res != nil {
		stats.Rounds = res.Rounds
		stats.Firings = res.Firings
		res.Delta = stats
	}
	return res, err
}

func (e *Engine) applyDeltaStratified(ctx context.Context, prev *Result, edb *Store, p *evalPlan, effAdds, effDels *Store, stats *DeltaStats) (*Result, error) {
	sp := e.opts.Trace.Child("datalog.apply_delta")
	defer sp.End()
	sp.SetInt("edb_adds", int64(effAdds.Size()))
	sp.SetInt("edb_dels", int64(effDels.Size()))
	lim := newLimiter(ctx, e.opts.Limits)

	p.prepareDelta()
	old := prev.Store
	store := old.Clone()
	res := &Result{Store: store, Stratified: true, eng: e, Delta: stats, edb: edb}

	// Cumulative net changes relative to the old model, grown stratum by
	// stratum; higher strata read them as their input delta.
	cumAdd, cumDel := NewStore(), NewStore()

	// EDB insertions take effect immediately: a new extensional fact is
	// present regardless of rules; its consequences propagate upward.
	effAdds.EachIDs(func(key string, arity int, row []uint32) {
		if store.InsertKeyIDs(key, arity, row) {
			cumAdd.InsertKeyIDs(key, arity, row)
		}
		if _, derived := p.headLevel[key]; derived {
			edb.InsertKeyIDs(key, arity, row)
		}
	})
	// EDB deletions of underivable predicates also apply immediately.
	// Deletions of derivable predicates become overdelete seeds in the
	// owning stratum — the fact may have alternative derivations.
	pendingDel := make([]*Store, len(p.strata))
	effDels.EachIDs(func(key string, arity int, row []uint32) {
		if lvl, ok := p.headLevel[key]; ok {
			if pendingDel[lvl] == nil {
				pendingDel[lvl] = NewStore()
			}
			pendingDel[lvl].InsertKeyIDs(key, arity, row)
			edb.DeleteKeyIDs(key, row)
			return
		}
		if store.DeleteKeyIDs(key, row) {
			cumDel.InsertKeyIDs(key, arity, row)
		}
	})

	for lvl, st := range p.strata {
		if len(st.rules) == 0 {
			continue
		}
		pend := pendingDel[lvl]
		if (pend == nil || pend.Size() == 0) && !readsChanged(st, cumAdd, cumDel) {
			continue
		}
		ssp := sp.Childf("stratum %d", lvl)
		if err := st.prepare(&e.opts); err != nil {
			ssp.End()
			return res, err
		}
		if st.hasAgg {
			// An aggregate value cannot be patched from tuple deltas:
			// re-fold the groups the changes touch, or, out of shape,
			// recompute the whole stratum against the (final) lower
			// strata and diff against the old model.
			var err error
			if groups, ok := st.fold.touchedGroups(pend, cumAdd, cumDel); ok {
				err = e.foldStratum(st, groups, edb, store, cumAdd, cumDel, stats, lim, ssp)
			} else {
				err = e.recomputeStratum(st, edb, store, old, cumAdd, cumDel, stats, lim, ssp)
				stats.RecomputedStrata++
			}
			ssp.End()
			if err != nil {
				return res, err
			}
			continue
		}
		err := e.dredStratum(st, edb, store, old, cumAdd, cumDel, pend, stats, lim, ssp)
		ssp.End()
		if err != nil {
			return res, err
		}
	}

	// No rule derives the other relations the delta touched, so the
	// store's hold exactly the new EDB's facts: share them.
	for _, eff := range []*Store{effAdds, effDels} {
		for k := range eff.rels {
			if _, derived := p.headLevel[k]; !derived {
				edb.rels[k] = store.rels[k]
			}
		}
	}
	stats.Inserted = cumAdd.Size()
	stats.Deleted = cumDel.Size()
	res.Rounds = stats.Rounds
	res.Firings = stats.Firings
	sp.SetInt("inserted", int64(stats.Inserted))
	sp.SetInt("deleted", int64(stats.Deleted))
	sp.SetInt("overdeleted", int64(stats.Overdeleted))
	sp.SetInt("rederived", int64(stats.Rederived))
	if c := e.opts.Counters; c != nil {
		c.Add("datalog.delta_applies", 1)
		c.Add("datalog.delta_edb_adds", int64(stats.AddsApplied))
		c.Add("datalog.delta_edb_dels", int64(stats.DelsApplied))
		c.Add("datalog.dred_overdeleted", int64(stats.Overdeleted))
		c.Add("datalog.dred_rederived", int64(stats.Rederived))
		c.Add("datalog.delta_inserted", int64(stats.Inserted))
		c.Add("datalog.delta_deleted", int64(stats.Deleted))
		c.Add("datalog.delta_strata_recomputed", int64(stats.RecomputedStrata))
		c.Add("datalog.delta_groups_refolded", int64(stats.GroupsRefolded))
	}
	return res, nil
}

// recomputeStratum wipes the stratum's head predicates, re-seeds them
// from the (already patched) edb and re-runs the stratum fixpoint, then
// folds the old-vs-new diff of those predicates into the cumulative
// deltas.
func (e *Engine) recomputeStratum(st *stratumPlan, edb, store, old, cumAdd, cumDel *Store, stats *DeltaStats, lim *limiter, ssp *obs.Span) error {
	for k, ar := range st.heads {
		nr := NewRelation(ar)
		store.rels[k] = nr
		if er := edb.Rel(k); er != nil {
			_ = er.each(func(row []uint32) error {
				nr.InsertIDs(row)
				return nil
			})
		}
	}
	rounds, firings, err := fixpoint(st.prepared, store, store, &e.opts, lim, ssp)
	stats.Rounds += rounds
	stats.Firings += firings
	if err != nil {
		return err
	}
	for k := range st.heads {
		nr, or := store.Rel(k), old.Rel(k)
		if nr != nil {
			_ = nr.each(func(row []uint32) error {
				if or == nil || !or.ContainsIDs(row) {
					cumAdd.InsertKeyIDs(k, nr.Arity(), row)
				}
				return nil
			})
		}
		if or != nil {
			_ = or.each(func(row []uint32) error {
				if nr == nil || !nr.ContainsIDs(row) {
					cumDel.InsertKeyIDs(k, or.Arity(), row)
				}
				return nil
			})
		}
	}
	return nil
}

// errStopMatch aborts a match enumeration after the first solution.
var errStopMatch = fmt.Errorf("datalog: internal: stop match")

// dredStratum runs delete-and-rederive plus semi-naive insertion for
// one aggregate-free stratum. store holds the new model below this
// stratum (final) and the old model at and above it; old is the full
// previous model and is never written; edb is the patched EDB.
func (e *Engine) dredStratum(st *stratumPlan, edb, store, old, cumAdd, cumDel, pend *Store, stats *DeltaStats, lim *limiter, ssp *obs.Span) error {
	opts := &e.opts
	st.prepareDRed()
	prepared, deltaJobs := st.prepared, st.deltaJobs

	// --- Phase 1: overdelete. Joins run against the old model: a fact
	// is a candidate iff some derivation in the old model used a deleted
	// fact (or the absence of an added one), which is exactly what the
	// delta variants enumerate when the delta holds the deletions.
	overdel := NewStore()
	delDelta := NewStore()
	cumDel.MergeInto(delDelta)
	if pend != nil {
		pend.EachIDs(func(key string, arity int, row []uint32) {
			if old.ContainsKeyIDs(key, row) && overdel.InsertKeyIDs(key, arity, row) {
				delDelta.InsertKeyIDs(key, arity, row)
			}
		})
	}
	// Negation-driven candidates: a lower-stratum fact was added, so
	// old derivations that relied on its absence die.
	negDel, err := negDriven(prepared, cumAdd, old, old, opts, lim)
	if err != nil {
		return err
	}
	for _, f := range negDel {
		if old.ContainsKeyIDs(f.key, f.ids) && overdel.InsertKeyIDs(f.key, len(f.ids), f.ids) {
			delDelta.InsertKeyIDs(f.key, len(f.ids), f.ids)
		}
	}
	rounds := 0
	for delDelta.Size() > 0 {
		if opts.MaxIterations > 0 && rounds > opts.MaxIterations {
			return fmt.Errorf("datalog: overdeletion exceeded %d rounds", opts.MaxIterations)
		}
		if err := lim.round(); err != nil {
			return err
		}
		ev := &evalCtx{store: old, negCtx: old, opts: opts, lim: lim}
		facts, err := runJobs(deltaJobs, delDelta, ev, nil)
		if err != nil {
			return err
		}
		stats.Firings += ev.firings
		next := NewStore()
		for _, f := range facts {
			if !old.ContainsKeyIDs(f.key, f.ids) {
				continue
			}
			if overdel.InsertKeyIDs(f.key, len(f.ids), f.ids) {
				next.InsertKeyIDs(f.key, len(f.ids), f.ids)
			}
		}
		delDelta = next
		rounds++
	}
	// Remove the candidates — except facts the (patched) EDB still
	// asserts, which stand on their own. Removal is batched per
	// relation: a large overdeletion wave compacts each relation in one
	// pass instead of paying a per-row index patch (see
	// Relation.DeleteIDsBatch). The collected rows alias overdel's
	// storage, which is not mutated while the store's relations are.
	type removedFact struct {
		key string
		row []term.Term
	}
	var removed []removedFact
	perKey := make(map[string][][]uint32)
	overdel.EachIDs(func(key string, arity int, row []uint32) {
		if edb.ContainsKeyIDs(key, row) {
			return
		}
		if store.ContainsKeyIDs(key, row) {
			perKey[key] = append(perKey[key], row)
			removed = append(removed, removedFact{key: key, row: termsOfIDs(row)})
		}
	})
	for key, rows := range perKey {
		store.DeleteKeyIDsBatch(key, rows)
	}
	stats.Overdeleted += len(removed)
	ssp.SetInt("overdeleted", int64(len(removed)))

	// --- Phase 2: rederive. Put back every removed fact that still has
	// a derivation from surviving facts, to fixpoint (a put-back can
	// support further put-backs through recursion).
	rederived := 0
	// One substitution and one context serve every check: each check
	// undoes its own bindings before it returns.
	s := term.NewSubst()
	rev := &evalCtx{store: store, negCtx: store, opts: opts}
	for changed := true; changed; {
		changed = false
		// Rederivation is bounded by the overdeleted set, but each
		// one-step check is a join; honor a fired context between passes.
		if err := lim.ctxErr(); err != nil {
			return err
		}
		for i := range removed {
			f := &removed[i]
			if f.row == nil {
				continue
			}
			ok, err := derivableOneStep(st.rulesByHead[f.key], f.row, rev, s)
			if err != nil {
				return err
			}
			if ok {
				store.InsertKey(f.key, len(f.row), f.row)
				f.row = nil
				rederived++
				changed = true
			}
		}
	}
	stats.Rederived += rederived
	ssp.SetInt("rederived", int64(rederived))

	// --- Phase 3: insert. Seed with the lower strata's net additions
	// plus facts that fire because a lower-stratum fact disappeared
	// (negation), then run the semi-naive delta rounds on the new store.
	insDelta := NewStore()
	cumAdd.MergeInto(insDelta)
	// The retained derivedFact ID rows stay valid: each round derives
	// into a fresh context, so no arena is reset while its rows are
	// still referenced here.
	var inserted []derivedFact
	negIns, err := negDriven(prepared, cumDel, store, store, opts, lim)
	if err != nil {
		return err
	}
	for _, f := range negIns {
		if store.InsertKeyIDs(f.key, len(f.ids), f.ids) {
			insDelta.InsertKeyIDs(f.key, len(f.ids), f.ids)
			inserted = append(inserted, f)
		}
	}
	for insDelta.Size() > 0 {
		if opts.MaxIterations > 0 && rounds > opts.MaxIterations {
			return fmt.Errorf("datalog: incremental insertion exceeded %d rounds", opts.MaxIterations)
		}
		if err := lim.round(); err != nil {
			return err
		}
		ev := &evalCtx{store: store, negCtx: store, opts: opts, lim: lim}
		facts, err := runJobs(deltaJobs, insDelta, ev, nil)
		if err != nil {
			return err
		}
		stats.Firings += ev.firings
		next := NewStore()
		for _, f := range facts {
			if store.InsertKeyIDs(f.key, len(f.ids), f.ids) {
				next.InsertKeyIDs(f.key, len(f.ids), f.ids)
				inserted = append(inserted, f)
			}
		}
		insDelta = next
		rounds++
	}
	stats.Rounds += rounds
	ssp.SetInt("rounds", int64(rounds))

	// Fold this stratum's net changes for the strata above. A removed
	// fact re-inserted by phase 3 is no net change; an inserted fact
	// already present in the old model (a put-back) is none either.
	for _, f := range removed {
		if f.row == nil || store.ContainsKey(f.key, f.row) {
			continue
		}
		ar := len(f.row)
		cumDel.InsertKey(f.key, ar, f.row)
	}
	for _, f := range inserted {
		if !old.ContainsKeyIDs(f.key, f.ids) {
			cumAdd.InsertKeyIDs(f.key, len(f.ids), f.ids)
		}
	}
	return nil
}

// derivableOneStep reports whether some rule derives the fact (keyed
// head, ground row) from ev's store in one step. s is scratch: it comes
// back with the bindings it went in with.
func derivableOneStep(rules []preparedRule, row []term.Term, ev *evalCtx, s *term.Subst) (bool, error) {
	for _, pr := range rules {
		trail, ok := s.MatchTuple(pr.rule.Head.Args, row)
		if !ok {
			s.Undo(trail)
			continue
		}
		if len(pr.rule.Body) == 0 {
			s.Undo(trail)
			return true, nil
		}
		found := false
		err := ev.match(pr.ordered, 0, -1, s, func(*term.Subst) error {
			found = true
			return errStopMatch
		})
		s.Undo(trail)
		if err != nil && err != errStopMatch {
			return false, err
		}
		if found {
			return true, nil
		}
	}
	return false, nil
}

// negDriven finds the head facts derivable when a negated body literal
// is bound to a changed tuple of its predicate: for deletions driven by
// additions the body is evaluated in the old model (where the tuple was
// absent, so the negation holds), for insertions driven by deletions in
// the new one.
func negDriven(prepared []preparedRule, changed *Store, joinStore, negCtx *Store, opts *Options, lim *limiter) ([]derivedFact, error) {
	var out []derivedFact
	for _, pr := range prepared {
		for _, el := range pr.ordered {
			l, ok := el.(Literal)
			if !ok || !l.Neg || IsBuiltin(l.Pred, len(l.Args)) {
				continue
			}
			rel := changed.Rel(l.Key())
			if rel == nil || rel.Len() == 0 {
				continue
			}
			ev := &evalCtx{store: joinStore, negCtx: negCtx, opts: opts, lim: lim}
			for _, row := range rel.Rows() {
				s := term.NewSubst()
				trail, ok := s.MatchTuple(l.Args, row)
				if ok {
					err := ev.match(pr.ordered, 0, -1, s, func(s2 *term.Subst) error {
						return ev.deriveHead(pr.headKey, pr.rule.Head, s2)
					})
					if err != nil {
						return nil, err
					}
				}
				s.Undo(trail)
			}
			out = append(out, ev.newFacts...)
		}
	}
	return out, nil
}
