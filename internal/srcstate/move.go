package srcstate

import (
	"context"
	"fmt"
	"maps"

	"modelmed/internal/datalog"
	"modelmed/internal/term"
)

// Change is one move of a source: the facts and anchors it adds and
// deletes, as empty-body rules with ground heads.
type Change struct {
	Adds, Dels             []datalog.Rule
	AnchorAdds, AnchorDels []datalog.Rule
}

// Move returns b with source name's state moved to version under ch and
// the Result patched by one ApplyDeltaCtx under ctx. Facts fold before
// anchors, deletions before additions, into layers over the state's
// stores; a deletion the state does not hold and an addition it already
// holds are skipped. The shared-fact rule: a fact leaves the EDB only
// when no store of any state still holds it, since every source whose
// model declares a global schema fact asserts it. Move also returns the
// changes that took effect and the patch's work (nil when the engine
// was not touched). b itself is not written, so a failed move leaves
// nothing to take back.
func (b Base) Move(ctx context.Context, name string, version uint64, ch Change) (next Base, eff Change, stats *datalog.DeltaStats, err error) {
	st := b.states[name]
	switch {
	case st == nil:
		return b, Change{}, nil, fmt.Errorf("no state of source %s", name)
	case b.res == nil:
		return b, Change{}, nil, fmt.Errorf("no result to move")
	}
	moved := &State{Facts: st.Facts.Clone(), Anchors: st.Anchors, Rules: st.Rules, Version: version}
	if len(ch.AnchorAdds)+len(ch.AnchorDels) > 0 {
		moved.Anchors = st.Anchors.Clone()
	}
	next = Base{states: maps.Clone(b.states), eng: b.eng, res: b.res}
	next.states[name] = moved
	d := datalog.NewDelta()
	if eff.Adds, eff.Dels, err = next.fold(moved.Facts, d, ch.Adds, ch.Dels); err == nil {
		eff.AnchorAdds, eff.AnchorDels, err = next.fold(moved.Anchors, d, ch.AnchorAdds, ch.AnchorDels)
	}
	if err == nil && !d.Empty() {
		if next.res, err = b.eng.ApplyDeltaCtx(ctx, b.res, d); err == nil {
			stats = next.res.Delta
		}
	}
	if err != nil {
		return b, Change{}, nil, err
	}
	return next, eff, stats, nil
}

// fold folds dels then adds into st, one store of a state of b, and
// into the engine delta d, returning the changes that took effect.
func (b Base) fold(st *datalog.Store, d *datalog.Delta, adds, dels []datalog.Rule) (effAdds, effDels []datalog.Rule, err error) {
	for _, r := range dels {
		key := datalog.PredKey(r.Head.Pred, len(r.Head.Args))
		if !st.DeleteKey(key, r.Head.Args) {
			continue // the source does not hold it
		}
		effDels = append(effDels, r)
		if b.held(key, r.Head.Args) {
			continue // another store still holds it
		}
		if err := d.Del(r.Head.Pred, r.Head.Args...); err != nil {
			return nil, nil, err
		}
	}
	for _, r := range adds {
		if !st.Insert(r.Head.Pred, r.Head.Args) {
			continue // already held
		}
		effAdds = append(effAdds, r)
		if err := d.Add(r.Head.Pred, r.Head.Args...); err != nil {
			return nil, nil, err
		}
	}
	return effAdds, effDels, nil
}

// held reports whether any state still holds the fact: the shared-fact
// rule.
func (b Base) held(key string, row []term.Term) bool {
	for _, st := range b.states {
		if st.Facts.ContainsKey(key, row) || st.Anchors.ContainsKey(key, row) {
			return true
		}
	}
	return false
}
