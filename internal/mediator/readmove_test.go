package mediator

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/dl"
	"modelmed/internal/gcm"
	"modelmed/internal/persist"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// negatedQ is a query with a negated group: its auxiliary rule runs in a
// per-query layer, never in the program.
const negatedQ = `src_obj('SYNAPSE', O, C), not (src_obj('SYNAPSE', O, C), C = dendrite)`

// pushedFact is a SYNAPSE fact its wrapper never reports, so only the
// state the mediator holds carries it.
func pushedFact(obj string) datalog.Rule {
	return datalog.Fact(PredSrcObj, term.Atom("SYNAPSE"), term.Atom(obj), term.Atom("spine_measurement"))
}

func pushedRows(t *testing.T, m *Mediator, obj string) int {
	t.Helper()
	return countRows(t, m, fmt.Sprintf("src_obj('SYNAPSE', %s, C)", obj))
}

// extraSource is one more source to register, fresh per mediator.
func extraSource(t *testing.T) wrapper.Wrapper {
	t.Helper()
	w, err := wrapper.NewInMemory(sources.MustSyntheticSource("EXTRA00", 5, 4, []string{"ca1"}))
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// neuroWithObject is newNeuroMediator(t, 6, 4, 4) whose SYNAPSE wrapper
// itself reports obj: a build from scratch over the source states a
// push of pushedFact(obj) leaves behind.
func neuroWithObject(t *testing.T, obj string) *Mediator {
	t.Helper()
	m := New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(11, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name() == "SYNAPSE" {
			w.Mutate(func(mod *gcm.Model) {
				mod.AddObject(gcm.Object{ID: term.Atom(obj), Class: "spine_measurement", Values: map[string][]term.Term{}})
			})
		}
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestReadMovesNoState: a read, a program change and a registration
// keep the source states the mediator holds. A pushed fact answers
// after each and the store is a build from scratch over the same
// states; a query leaves the very store it read. Only Invalidate reads
// SYNAPSE again, which drops the fact its wrapper never reported. The
// log sees no Full marker around a negated query, so a restart replays
// to the live store; and without the fault-tolerance layer a streamed
// fact survives a program change.
func TestReadMovesNoState(t *testing.T) {
	push := func(op func(t *testing.T, m *Mediator), read bool) func(t *testing.T, m *Mediator) {
		return func(t *testing.T, m *Mediator) {
			if _, err := m.ApplySourceDelta("SYNAPSE", []datalog.Rule{pushedFact("pushed_obj")}, nil); err != nil {
				t.Fatal(err)
			}
			pushed := storeOf(t, m)
			op(t, m)
			if n := pushedRows(t, m, "pushed_obj"); n != 1 {
				t.Fatalf("the pushed fact answers %d rows, want 1", n)
			}
			got := storeOf(t, m)
			if read && got != pushed {
				t.Error("a read moved the store")
			}
			ref := neuroWithObject(t, "pushed_obj")
			op(t, ref)
			if !got.Equal(storeOf(t, ref)) {
				t.Error("the store differs from a build from scratch over the same source states")
			}
		}
	}
	for _, tc := range []struct {
		name string
		run  func(t *testing.T, m *Mediator)
	}{
		{"negated query", push(func(t *testing.T, m *Mediator) { countRows(t, m, negatedQ) }, true)},
		{"DefineView", push(func(t *testing.T, m *Mediator) {
			if err := m.DefineView(`probe_view(O) :- src_obj('SYNAPSE', O, spine_measurement).`); err != nil {
				t.Fatal(err)
			}
		}, false)},
		{"RegisterKnowledge", push(func(t *testing.T, m *Mediator) {
			if err := m.RegisterKnowledge(dl.Sub("probe_concept", dl.C("thing"))); err != nil {
				t.Fatal(err)
			}
		}, false)},
		{"Register", push(func(t *testing.T, m *Mediator) {
			if err := m.Register(extraSource(t)); err != nil {
				t.Fatal(err)
			}
		}, false)},
		{"Invalidate", func(t *testing.T, m *Mediator) {
			if _, err := m.ApplySourceDelta("SYNAPSE", []datalog.Rule{pushedFact("pushed_obj")}, nil); err != nil {
				t.Fatal(err)
			}
			m.Invalidate()
			if n := pushedRows(t, m, "pushed_obj"); n != 0 {
				t.Fatalf("after Invalidate the pushed fact answers %d rows, want 0", n)
			}
		}},
		{"push negated push restart", func(t *testing.T, m *Mediator) {
			db := newPersistDB(t)
			if err := m.SaveSnapshotTo(db); err != nil {
				t.Fatal(err)
			}
			var recs []*persist.WALRecord
			m.SetDeltaLogger(func(rec *persist.WALRecord) {
				recs = append(recs, rec)
				if err := db.AppendWAL(rec); err != nil {
					t.Errorf("wal append: %v", err)
				}
			})
			for i, step := range []func() error{
				func() error {
					_, err := m.ApplySourceDelta("SYNAPSE", []datalog.Rule{pushedFact("a1")}, nil)
					return err
				},
				func() error { _, err := m.Query(negatedQ); return err },
				func() error {
					rep, err := m.ApplySourceDelta("SYNAPSE", []datalog.Rule{pushedFact("a2")}, nil)
					if err == nil && rep.Full {
						err = errors.New("the second push rebuilt")
					}
					return err
				},
			} {
				if err := step(); err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
			}
			for _, rec := range recs {
				if rec.Full {
					t.Fatalf("a Full marker for %s reached the log", rec.Source)
				}
			}
			m2 := newNeuroMediator(t, 6, 4, 4)
			if rep := m2.RestoreFromDB(db); !rep.Restored || rep.Replayed != 2 {
				t.Fatalf("restore: %+v, want restored after 2 records", rep)
			}
			if !storeOf(t, m2).Equal(storeOf(t, m)) {
				t.Error("the restored store differs from the live one")
			}
		}},
		{"streamed fact survives DefineView", func(t *testing.T, m *Mediator) {
			src, _ := m.Source("SYNAPSE")
			w := src.W.(*wrapper.InMemory)
			ch, cancel, err := w.SubscribeDeltas(4)
			if err != nil {
				t.Fatal(err)
			}
			defer cancel()
			w.Mutate(func(mod *gcm.Model) {
				mod.AddObject(gcm.Object{ID: term.Atom("streamed_obj"), Class: "spine_measurement", Values: map[string][]term.Term{}})
			})
			if _, out, err := m.ApplyStreamBatch(<-ch); err != nil || out != StreamApplied {
				t.Fatalf("stream: out=%v err=%v", out, err)
			}
			if err := m.DefineView(`probe_view(O) :- src_obj('SYNAPSE', O, spine_measurement).`); err != nil {
				t.Fatal(err)
			}
			if n := pushedRows(t, m, "streamed_obj"); n != 1 {
				t.Fatalf("after DefineView the streamed fact answers %d rows, want 1", n)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newNeuroMediator(t, 6, 4, 4)
			if _, err := m.Materialize(); err != nil {
				t.Fatal(err)
			}
			tc.run(t, m)
		})
	}
}

// limitedNeuro is newNeuroMediator(t, 6, 4, 4) under a derived-fact
// budget.
func limitedNeuro(t *testing.T, maxFacts int) *Mediator {
	t.Helper()
	m := New(sources.NeuroDM(), &Options{Engine: datalog.Options{Limits: datalog.Limits{MaxDerivedFacts: maxFacts}}})
	ws, err := sources.Wrappers(11, 6, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	return m
}

// movedState is what a failed move must leave as it found it.
type movedState struct {
	store *datalog.Store
	snap  *persist.Snapshot
	index []string
}

func stateOf(t *testing.T, m *Mediator) movedState {
	t.Helper()
	snap, err := m.SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	return movedState{storeOf(t, m), snap, indexDump(m)}
}

func (s movedState) equal(o movedState) error {
	switch {
	case s.store != o.store:
		return errors.New("the cache moved")
	case !s.snap.Store.Equal(o.snap.Store):
		return errors.New("the snapshot store moved")
	case !slices.Equal(s.index, o.index):
		return errors.New("the index moved")
	case len(s.snap.Sources) != len(o.snap.Sources):
		return errors.New("the snapshot sources moved")
	}
	for i, a := range s.snap.Sources {
		b := o.snap.Sources[i]
		if a.Name != b.Name || a.Version != b.Version || !a.Facts.Equal(b.Facts) || !a.Anchors.Equal(b.Anchors) {
			return fmt.Errorf("the state of %s moved", a.Name)
		}
	}
	return nil
}

// TestFailedMoveChangesNothing: a push whose patch trips the engine's
// budget returns the budget error and leaves the cache, the snapshots,
// the index and the log as they were; the next small push patches as
// usual. A stream batch that fails the same way leaves the version
// behind, so the next batch resyncs.
func TestFailedMoveChangesNothing(t *testing.T) {
	cold, err := newNeuroMediator(t, 6, 4, 4).Materialize()
	if err != nil {
		t.Fatal(err)
	}
	budget := 2*cold.Firings + 1000
	m := limitedNeuro(t, budget)
	if _, err := m.Materialize(); err != nil {
		t.Fatalf("the cold build must fit the budget: %v", err)
	}
	var recs int
	m.SetDeltaLogger(func(*persist.WALRecord) { recs++ })
	large := make([]datalog.Rule, budget)
	for i := range large {
		large[i] = pushedFact(fmt.Sprintf("bulk%d", i))
	}
	before := stateOf(t, m)
	var be *datalog.ErrBudgetExceeded
	if _, err := m.ApplySourceDelta("SYNAPSE", large, nil); !errors.As(err, &be) {
		t.Fatalf("large push: err = %v, want *datalog.ErrBudgetExceeded", err)
	}
	if err := stateOf(t, m).equal(before); err != nil {
		t.Fatalf("after a failed push: %v", err)
	}
	if recs != 0 {
		t.Fatalf("a failed push wrote %d WAL records", recs)
	}

	small := []datalog.Rule{pushedFact("small_obj")}
	rep, err := m.ApplySourceDelta("SYNAPSE", small, nil)
	if err != nil || rep.Full {
		t.Fatalf("small push: rep=%+v err=%v, want a patch", rep, err)
	}
	ref := newNeuroMediator(t, 6, 4, 4)
	if _, err := ref.ApplySourceDelta("SYNAPSE", small, nil); err != nil {
		t.Fatal(err)
	}
	if !storeOf(t, m).Equal(storeOf(t, ref)) {
		t.Fatal("the store after a failed and a small push differs from the small push alone")
	}

	src, _ := m.Source("SYNAPSE")
	from := src.W.(wrapper.Versioned).DataVersion()
	batch := wrapper.DeltaBatch{Source: "SYNAPSE", FromVersion: from, ToVersion: from + 1, Adds: large}
	if _, _, err := m.ApplyStreamBatch(batch); !errors.As(err, &be) {
		t.Fatalf("large batch: err = %v, want *datalog.ErrBudgetExceeded", err)
	}
	next := wrapper.DeltaBatch{Source: "SYNAPSE", FromVersion: from + 1, ToVersion: from + 2, Adds: small}
	if _, out, err := m.ApplyStreamBatch(next); err != nil || out != StreamResynced {
		t.Fatalf("batch after a failed one: out=%v err=%v, want resynced", out, err)
	}
}
