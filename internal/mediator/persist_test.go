package mediator

// Warm-restart semantics at the mediator level: SnapshotState /
// RestoreFromDB round trips, WAL replay of pushed deltas, stale-source
// reconciliation, and every rejection path that must fall back to a
// cold materialization. The byte-level crash matrix lives in
// internal/persist/crash_test.go; these tests pin the semantic
// contract on top of it.

import (
	"math/rand"
	"strings"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/parser"
	"modelmed/internal/persist"
	"modelmed/internal/sources"
	"modelmed/internal/term"
)

// newPersistDB opens a NoSync store in a fresh temp dir.
func newPersistDB(t *testing.T) *persist.DB {
	t.Helper()
	db, err := persist.Open(t.TempDir(), &persist.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestWarmRestoreRoundTrip: a second process (fresh mediator, fresh
// same-seed wrappers) adopts the snapshot without a fixpoint run and
// behaves identically afterwards — queries, pushes, syncs.
func TestWarmRestoreRoundTrip(t *testing.T) {
	const seed = 41
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	want, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	db := newPersistDB(t)
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}

	ws2 := newDiffWrappers(t, seed)
	m2 := newDiffMediator(t, ws2)
	rep := m2.RestoreFromDB(db)
	if !rep.Restored {
		t.Fatalf("restore failed: %s", rep.Reason)
	}
	if len(rep.StaleSources) != 0 {
		t.Fatalf("same-seed wrappers reported stale: %v", rep.StaleSources)
	}
	if rep.Facts != want.Store.Size() {
		t.Fatalf("restored %d facts, want %d", rep.Facts, want.Store.Size())
	}
	got, err := m2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Store.Equal(want.Store) {
		t.Fatal("restored store differs from the one snapshotted")
	}

	// The restored cache must keep working as a live one: pushes patch
	// it incrementally and syncs reconcile against scratch.
	obj := term.Atom("alpha_pushed")
	adds := []datalog.Rule{
		datalog.Fact(PredSrcObj, term.Atom("alpha"), obj, term.Atom("record")),
		datalog.Fact(PredSrcVal, term.Atom("alpha"), obj, term.Atom("value"), term.Float(5)),
	}
	drep, err := m2.ApplySourceDelta("alpha", adds, nil)
	if err != nil {
		t.Fatal(err)
	}
	if drep.Full {
		t.Fatalf("push against a restored cache fell back to full rebuild: %+v", drep)
	}
	res, err := m2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds("instance", obj, term.Atom("record")) {
		t.Error("pushed object should classify through the bridge rules after restore")
	}
	ws2[1].Mutate(mutateModel(rand.New(rand.NewSource(3)), "beta", 0))
	if _, err := m2.SyncSources(); err != nil {
		t.Fatal(err)
	}
}

// TestWarmRestoreReplaysWAL: deltas pushed after the snapshot land in
// the log and a restore replays them to the dying process's exact
// store.
func TestWarmRestoreReplaysWAL(t *testing.T) {
	const seed = 43
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	db := newPersistDB(t)
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}
	m.SetDeltaLogger(func(rec *persist.WALRecord) {
		if err := db.AppendWAL(rec); err != nil {
			t.Errorf("wal append: %v", err)
		}
	})

	obj := term.Atom("alpha_logged")
	adds := []datalog.Rule{
		datalog.Fact(PredSrcObj, term.Atom("alpha"), obj, term.Atom("record")),
		datalog.Fact(PredSrcVal, term.Atom("alpha"), obj, term.Atom("value"), term.Float(7)),
	}
	if _, err := m.ApplySourceDelta("alpha", adds, nil); err != nil {
		t.Fatal(err)
	}
	// A second record deleting one of them, so replay exercises both
	// directions.
	if _, err := m.ApplySourceDelta("alpha", nil, adds[1:]); err != nil {
		t.Fatal(err)
	}
	want, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	m2 := newDiffMediator(t, newDiffWrappers(t, seed))
	rep := m2.RestoreFromDB(db)
	if !rep.Restored {
		t.Fatalf("restore failed: %s", rep.Reason)
	}
	if rep.Replayed != 2 {
		t.Fatalf("replayed %d records, want 2", rep.Replayed)
	}
	got, err := m2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Store.Equal(want.Store) {
		t.Fatal("replayed store differs from the live one")
	}
	if !got.Holds("instance", obj, term.Atom("record")) {
		t.Error("replayed push should classify through the bridge rules")
	}
}

// TestWarmRestoreStaleSourceReconcile: a wrapper that moved while the
// process was down is reported stale; SyncSources patches the restored
// cache up to scratch equality.
func TestWarmRestoreStaleSourceReconcile(t *testing.T) {
	const seed = 47
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	db := newPersistDB(t)
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}

	// The downtime mutation happens on the wrappers the next process
	// will register — the source moved on while nobody was serving.
	r := rand.New(rand.NewSource(seed))
	ws[0].Mutate(mutateModel(r, "alpha", 0))
	m2 := newDiffMediator(t, ws)
	rep := m2.RestoreFromDB(db)
	if !rep.Restored {
		t.Fatalf("restore failed: %s", rep.Reason)
	}
	if len(rep.StaleSources) != 1 || rep.StaleSources[0] != "alpha" {
		t.Fatalf("stale sources %v, want [alpha]", rep.StaleSources)
	}
	reps, err := m2.SyncSources()
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 1 || reps[0].Source != "alpha" {
		t.Fatalf("sync refreshed %+v, want alpha only", reps)
	}
	checkAgainstScratch(t, "stale-reconcile", m2, ws)
}

// TestRestoreRejections: every validation failure leaves the caller on
// the cold path with a reason, never a wrong warm cache.
func TestRestoreRejections(t *testing.T) {
	const seed = 53
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	db := newPersistDB(t)
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}

	t.Run("empty-db", func(t *testing.T) {
		m2 := newDiffMediator(t, newDiffWrappers(t, seed))
		rep := m2.RestoreFromDB(newPersistDB(t))
		if rep.Restored || !strings.Contains(rep.Reason, "no snapshot") {
			t.Fatalf("restore from empty db: %+v", rep)
		}
	})

	t.Run("program-changed", func(t *testing.T) {
		// Same sources, but the views were never defined: a different
		// rule program must reject the snapshot.
		m2 := New(sources.NeuroDM(), nil)
		for _, w := range newDiffWrappers(t, seed) {
			if err := m2.Register(w); err != nil {
				t.Fatal(err)
			}
		}
		rep := m2.RestoreFromDB(db)
		if rep.Restored || !strings.Contains(rep.Reason, "program changed") {
			t.Fatalf("restore under changed program: %+v", rep)
		}
	})

	t.Run("source-set-changed", func(t *testing.T) {
		m2 := newDiffMediator(t, newDiffWrappers(t, seed)[:1])
		rep := m2.RestoreFromDB(db)
		if rep.Restored || !strings.Contains(rep.Reason, "sources") {
			t.Fatalf("restore with missing source: %+v", rep)
		}
	})

	t.Run("source-rules-changed", func(t *testing.T) {
		ws2 := newDiffWrappers(t, seed)
		ws2[0].Mutate(func(mod *gcm.Model) {
			// A semantic (non-ground) rule: derived facts under it could
			// differ, so the snapshot is not transferable.
			mod.Rules = append(mod.Rules, parser.MustParseRules(
				`local_site(O) :- anchor(alpha, O, C).`)...)
		})
		m2 := newDiffMediator(t, ws2)
		rep := m2.RestoreFromDB(db)
		if rep.Restored || !strings.Contains(rep.Reason, "semantic rules") {
			t.Fatalf("restore with changed source rules: %+v", rep)
		}
	})
}

// TestRestoreFullMarkerFallsBack: a full-rebuild marker in the log
// means the snapshot cannot reach the dying process's state by replay;
// recovery must refuse and leave the mediator on the cold path.
func TestRestoreFullMarkerFallsBack(t *testing.T) {
	const seed = 59
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	db := newPersistDB(t)
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}
	m.SetDeltaLogger(func(rec *persist.WALRecord) {
		if err := db.AppendWAL(rec); err != nil {
			t.Errorf("wal append: %v", err)
		}
	})
	// An anchor move to a concept the domain map does not know forces
	// the full-rebuild path, which logs a Full marker.
	ws[0].Mutate(func(mod *gcm.Model) {
		o := mod.Objects[0]
		o.Values["location"] = []term.Term{term.Atom("brand_new_region")}
	})
	rrep, err := m.RefreshSource("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if !rrep.Full {
		t.Fatalf("expected a full rebuild: %+v", rrep)
	}

	m2 := newDiffMediator(t, newDiffWrappers(t, seed))
	rep := m2.RestoreFromDB(db)
	if rep.Restored {
		t.Fatal("restore over a full-rebuild marker must fail to cold start")
	}
	if !strings.Contains(rep.Reason, "full-rebuild marker") {
		t.Fatalf("reason %q", rep.Reason)
	}
	// The cold path still works and converges with the live state.
	if _, err := m2.Materialize(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotStateRefusals: nothing sound to persist yields an error,
// not a bogus snapshot.
func TestSnapshotStateRefusals(t *testing.T) {
	ws := newDiffWrappers(t, 61)
	m := newDiffMediator(t, ws)
	if _, err := m.SnapshotState(); err == nil {
		t.Fatal("snapshot before materialization should fail")
	}
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.SnapshotState(); err != nil {
		t.Fatalf("snapshot of a clean cache: %v", err)
	}
	m.Invalidate()
	if _, err := m.SnapshotState(); err == nil {
		t.Fatal("snapshot of an invalidated cache should fail")
	}
}

// TestReplayIdempotence: replaying records whose changes the snapshot
// already contains (crash between snapshot rotation and WAL reset)
// must converge to the same store.
func TestReplayIdempotence(t *testing.T) {
	const seed = 67
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
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
	obj := term.Atom("alpha_idem")
	adds := []datalog.Rule{
		datalog.Fact(PredSrcObj, term.Atom("alpha"), obj, term.Atom("record")),
	}
	if _, err := m.ApplySourceDelta("alpha", adds, nil); err != nil {
		t.Fatal(err)
	}
	want, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Rotate the snapshot (now containing the change), then re-append
	// the same records — the crash-window shape.
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := db.AppendWAL(rec); err != nil {
			t.Fatal(err)
		}
	}
	m2 := newDiffMediator(t, newDiffWrappers(t, seed))
	rep := m2.RestoreFromDB(db)
	if !rep.Restored {
		t.Fatalf("restore failed: %s", rep.Reason)
	}
	if rep.Replayed != len(recs) {
		t.Fatalf("replayed %d, want %d", rep.Replayed, len(recs))
	}
	got, err := m2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Store.Equal(want.Store) {
		t.Fatal("double-applied replay diverged from the live store")
	}
}
