package datalog

// Group re-fold: how ApplyDelta maintains an aggregate stratum without
// recomputing it. A net change to a predicate an aggregate rule reads
// names the groups it touches — unify the changed fact with the
// literal that reads it and the rule's group-by variables come out
// bound. Each touched group's old head rows are retracted and the rule
// is run again with the group-by variables pre-bound, over the new
// lower strata, on the same evalAggregate a full run uses. Re-folding
// the group's distinct contributions, rather than keeping a running
// per-group state, gives the bits a from-scratch run gives (a float sum
// is taken over the sorted values), handles a delete of the current min
// or max and a group that empties, and keeps nothing on the Result. See
// DESIGN.md, "Incremental maintenance".

import (
	"slices"

	"modelmed/internal/obs"
	"modelmed/internal/term"
)

// aggFold is the re-fold plan of a stratum of aggregate rules. A level
// gets one when every aggregate rule on it
//   - groups every one of its aggregates by the same variables, each of
//     them an argument of its head;
//   - is the only rule of the level deriving its head predicate;
//   - reads only lower levels.
//
// Otherwise a delta recomputes the level wholesale (recomputeStratum).
type aggFold struct {
	rules []foldRule
	heads map[string]int // aggregate head key → index into rules
}

// foldRule is one aggregate rule of an aggFold, which holds them in the
// order of the stratum's rules.
type foldRule struct {
	group   []string  // the group-by variables
	headPos []int     // the head position of each group-by variable
	readers []Literal // every stored literal the rule reads, inside its aggregates or not
}

// splitLevel returns the strata one level's rules are evaluated as: the
// level as one stratum, or, when its aggregate rules are in shape for a
// re-fold, those rules with their fold plan and then the level's other
// rules, which may read the aggregate heads. An in-shape aggregate rule
// reads only lower levels, so running it first reaches the level's
// fixpoint.
func splitLevel(rules []Rule) []*stratumPlan {
	f := &aggFold{heads: make(map[string]int)}
	var agg, rest []Rule
	heads := make(map[string]int, len(rules)) // head key → rules deriving it
	for _, r := range rules {
		heads[r.Head.Key()]++
		fr, isAgg, ok := foldShape(r)
		switch {
		case !isAgg:
			rest = append(rest, r)
			continue
		case !ok:
			return []*stratumPlan{{rules: rules}}
		}
		f.heads[r.Head.Key()] = len(f.rules)
		f.rules = append(f.rules, fr)
		agg = append(agg, r)
	}
	if len(agg) == 0 {
		return []*stratumPlan{{rules: rules}}
	}
	for i, fr := range f.rules {
		if heads[agg[i].Head.Key()] > 1 {
			return []*stratumPlan{{rules: rules}}
		}
		for _, l := range fr.readers {
			if heads[l.Key()] > 0 {
				return []*stratumPlan{{rules: rules}}
			}
		}
	}
	out := []*stratumPlan{{rules: agg, fold: f}}
	if len(rest) > 0 {
		out = append(out, &stratumPlan{rules: rest})
	}
	return out
}

// foldShape reports whether r aggregates and, if so, whether it is in
// shape for a re-fold, with its fold plan.
func foldShape(r Rule) (fr foldRule, isAgg, ok bool) {
	var group []string
	for _, el := range r.Body {
		switch b := el.(type) {
		case Literal:
			if !IsBuiltin(b.Pred, len(b.Args)) {
				fr.readers = append(fr.readers, b)
			}
		case Aggregate:
			names := make([]string, 0, len(b.GroupBy))
			for _, g := range b.GroupBy {
				if g.Kind() != term.KindVar {
					return fr, true, false
				}
				names = append(names, g.Name())
			}
			slices.Sort(names)
			names = slices.Compact(names)
			if isAgg && !slices.Equal(group, names) {
				return fr, true, false
			}
			group, isAgg = names, true
			for _, l := range b.Body {
				if !IsBuiltin(l.Pred, len(l.Args)) {
					fr.readers = append(fr.readers, l)
				}
			}
		}
	}
	if !isAgg {
		return fr, false, false
	}
	for _, g := range group {
		pos := slices.IndexFunc(r.Head.Args, func(a term.Term) bool {
			return a.Kind() == term.KindVar && a.Name() == g
		})
		if pos < 0 {
			return fr, true, false
		}
		fr.headPos = append(fr.headPos, pos)
	}
	fr.group = group
	return fr, true, true
}

// touchedGroups returns, per aggregate rule, the groups (as ID rows in
// the order of foldRule.group) that the lower strata's net changes and
// the pending EDB deletions of aggregate heads touch, each once. ok is
// false when the stratum is out of shape (f is nil) or a change cannot
// bind every group-by variable of a rule that reads it: the stratum
// must then be recomputed.
func (f *aggFold) touchedGroups(pend, cumAdd, cumDel *Store) (groups [][][]uint32, ok bool) {
	if f == nil {
		return nil, false
	}
	groups = make([][][]uint32, len(f.rules))
	seen := make([]map[string]struct{}, len(f.rules))
	note := func(ri int, g []uint32) {
		if seen[ri] == nil {
			seen[ri] = make(map[string]struct{})
		}
		k := string(packRow(nil, g))
		if _, dup := seen[ri][k]; !dup {
			seen[ri][k] = struct{}{}
			groups[ri] = append(groups[ri], g)
		}
	}
	s := term.NewSubst()
	var args []term.Term
	for ri, fr := range f.rules {
		for _, l := range fr.readers {
			for _, changed := range []*Store{cumAdd, cumDel} {
				rel := changed.Rel(l.Key())
				if rel == nil {
					continue
				}
				err := rel.each(func(row []uint32) error {
					args = args[:0]
					for _, id := range row {
						args = append(args, termOf(id))
					}
					trail, match := s.MatchTuple(l.Args, args)
					defer s.Undo(trail)
					if !match {
						return nil // the change cannot reach the rule through l
					}
					g := make([]uint32, len(fr.group))
					for i, name := range fr.group {
						t := s.Apply(term.Var(name))
						if !t.IsGround() {
							return errStopMatch
						}
						g[i] = internTerm(t)
					}
					note(ri, g)
					return nil
				})
				if err != nil {
					return nil, false
				}
			}
		}
	}
	// An EDB row of an aggregate head that goes away touches the group it
	// lies in: the rule may still derive it.
	if pend != nil {
		pend.EachIDs(func(key string, _ int, row []uint32) {
			ri := f.heads[key]
			g := make([]uint32, len(f.rules[ri].headPos))
			for i, pos := range f.rules[ri].headPos {
				g[i] = row[pos]
			}
			note(ri, g)
		})
	}
	return groups, true
}

// foldStratum maintains a stratum of aggregate rules in shape: each
// touched group of each rule is re-folded. st is prepared.
func (e *Engine) foldStratum(st *stratumPlan, groups [][][]uint32, edb, store, cumAdd, cumDel *Store, stats *DeltaStats, lim *limiter, ssp *obs.Span) error {
	if err := lim.round(); err != nil {
		return err
	}
	ev := &evalCtx{store: store, negCtx: store, opts: &e.opts, lim: lim}
	s := term.NewSubst()
	refolded := 0
	for ri, fr := range st.fold.rules {
		for _, g := range groups[ri] {
			if err := refoldGroup(st.prepared[ri], fr, g, ev, s, edb, store, cumAdd, cumDel); err != nil {
				return err
			}
		}
		refolded += len(groups[ri])
	}
	stats.Rounds++
	stats.Firings += ev.firings
	stats.GroupsRefolded += refolded
	ssp.SetInt("groups_refolded", int64(refolded))
	return nil
}

// readsChanged reports whether a net change hits a predicate st reads.
func readsChanged(st *stratumPlan, cumAdd, cumDel *Store) bool {
	for k := range st.reads {
		if cumAdd.Count(k) > 0 || cumDel.Count(k) > 0 {
			return true
		}
	}
	return false
}

// refoldGroup re-runs one aggregate rule for the group g and moves the
// store's head rows of that group to what it derives, keeping rows the
// EDB asserts. Only rows that changed go into cumAdd and cumDel.
func refoldGroup(pr preparedRule, fr foldRule, g []uint32, ev *evalCtx, s *term.Subst, edb, store, cumAdd, cumDel *Store) error {
	for i, name := range fr.group {
		s.Bind(name, termOf(g[i]))
	}
	ev.newFacts, ev.arena = ev.newFacts[:0], ev.arena[:0]
	err := ev.match(pr.ordered, 0, -1, s, func(s *term.Subst) error {
		return ev.deriveHead(pr.headKey, pr.rule.Head, s)
	})
	for _, name := range fr.group {
		s.Remove(name)
	}
	if err != nil {
		return err
	}
	fresh := make(map[string]struct{}, len(ev.newFacts))
	var kb []byte
	for _, f := range ev.newFacts {
		kb = packRow(kb[:0], f.ids)
		fresh[string(kb)] = struct{}{}
	}
	key := pr.headKey
	var drop [][]uint32
	if rel := store.Rel(key); rel != nil {
		_ = eachGroupRow(rel, fr.headPos, g, func(row []uint32) error {
			kb = packRow(kb[:0], row)
			if _, keep := fresh[string(kb)]; !keep && !edb.ContainsKeyIDs(key, row) {
				drop = append(drop, slices.Clone(row))
			}
			return nil
		})
	}
	// Until its re-fold the head relation holds the old model's rows
	// plus the delta's EDB insertions, which are kept: a dropped row is
	// an old one, and a row the store lacks is new.
	for _, row := range drop {
		store.DeleteKeyIDs(key, row)
		cumDel.InsertKeyIDs(key, len(row), row)
	}
	for _, f := range ev.newFacts {
		if store.InsertKeyIDs(key, len(f.ids), f.ids) {
			cumAdd.InsertKeyIDs(key, len(f.ids), f.ids)
		}
	}
	return nil
}

// eachGroupRow calls fn with every row of rel whose values at the
// positions pos are g, through the most selective index probe. With no
// positions (a global aggregate) that is every row.
func eachGroupRow(rel *Relation, pos []int, g []uint32, fn func(row []uint32) error) error {
	if len(pos) == 0 {
		return rel.each(fn)
	}
	var rs rowSet
	for i, p := range pos {
		if sel := rel.probe(p, g[i]); i == 0 || sel.size() < rs.size() {
			rs = sel
		}
	}
	return rel.eachAt(rs, func(row []uint32) error {
		for i, p := range pos {
			if row[p] != g[i] {
				return nil
			}
		}
		return fn(row)
	})
}
