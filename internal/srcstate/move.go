package srcstate

import (
	"context"
	"fmt"

	"modelmed/internal/datalog"
	"modelmed/internal/term"
)

// Change is one move of a source: the facts and anchors it adds and
// deletes, as empty-body rules with ground heads.
type Change struct {
	Adds, Dels             []datalog.Rule
	AnchorAdds, AnchorDels []datalog.Rule
}

// Move moves source name's state to version under ch and patches the
// Result with one ApplyDeltaCtx under ctx. Facts fold before anchors,
// deletions before additions; a deletion the state does not hold and an
// addition it already holds are skipped. The shared-fact rule: a fact
// leaves the EDB only when no store of any state still holds it, since
// every source whose model declares a global schema fact asserts it.
// Move returns the changes that took effect and the patch's work (nil
// when the engine was not touched). A failed move unfolds its folds,
// and ApplyDeltaCtx takes its EDB changes back, so nothing moves.
func (b *Base) Move(ctx context.Context, name string, version uint64, ch Change) (eff Change, stats *datalog.DeltaStats, err error) {
	st := b.states[name]
	switch {
	case st == nil:
		return Change{}, nil, fmt.Errorf("no state of source %s", name)
	case b.res == nil:
		return Change{}, nil, fmt.Errorf("no result to move")
	}
	d := datalog.NewDelta()
	if eff.Adds, eff.Dels, err = b.fold(st.Facts, d, ch.Adds, ch.Dels); err == nil {
		eff.AnchorAdds, eff.AnchorDels, err = b.fold(st.Anchors, d, ch.AnchorAdds, ch.AnchorDels)
	}
	if err == nil && !d.Empty() {
		var res *datalog.Result
		if res, err = b.eng.ApplyDeltaCtx(ctx, b.res, d); err == nil {
			b.res, stats = res, res.Delta
		}
	}
	if err != nil {
		unfold(st.Facts, eff.Adds, eff.Dels)
		unfold(st.Anchors, eff.AnchorAdds, eff.AnchorDels)
		return Change{}, nil, err
	}
	st.Version = version
	return eff, stats, nil
}

// fold folds dels then adds into one store of a state and into the
// engine delta d, returning the changes that took effect — on error,
// the ones folded so far.
func (b *Base) fold(st *datalog.Store, d *datalog.Delta, adds, dels []datalog.Rule) (effAdds, effDels []datalog.Rule, err error) {
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
			return effAdds, effDels, err
		}
	}
	for _, r := range adds {
		if !st.Insert(r.Head.Pred, r.Head.Args) {
			continue // already held
		}
		effAdds = append(effAdds, r)
		if err := d.Add(r.Head.Pred, r.Head.Args...); err != nil {
			return effAdds, effDels, err
		}
	}
	return effAdds, effDels, nil
}

// held reports whether any state still holds the fact: the shared-fact
// rule.
func (b *Base) held(key string, row []term.Term) bool {
	for _, st := range b.states {
		if st.Facts.ContainsKey(key, row) || st.Anchors.ContainsKey(key, row) {
			return true
		}
	}
	return false
}

// unfold takes back what fold folded into st: the effective additions
// and deletions.
func unfold(st *datalog.Store, effAdds, effDels []datalog.Rule) {
	for _, r := range effAdds {
		st.Delete(r.Head.Pred, r.Head.Args)
	}
	for _, r := range effDels {
		st.Insert(r.Head.Pred, r.Head.Args)
	}
}
