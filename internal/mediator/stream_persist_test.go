package mediator

// Crash interplay between live federation and durability. A streamed
// delta becomes durable at the WAL append inside ApplyStreamBatch —
// before any subscriber is notified — so a process that dies in that
// window recovers to the exact post-delta state on warm restart:
// nothing lost. The flip side is exactly-once: stale (duplicate)
// deliveries must not log, and records the snapshot already subsumes
// must replay as no-ops, so nothing is double-applied either. The
// daemon-level version of this regression lives in cmd/medd.

import (
	"testing"
	"time"

	"modelmed/internal/gcm"
	"modelmed/internal/persist"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// TestStreamedBatchesReplayOnRestore: batches emitted by a live
// wrapper Mutate, applied through ApplyStreamBatch, land in the WAL
// and replay on a fresh process to the dying process's exact store.
func TestStreamedBatchesReplayOnRestore(t *testing.T) {
	const seed = 71
	ws := newDiffWrappers(t, seed)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	db := newPersistDB(t)
	if err := m.SaveSnapshotTo(db); err != nil {
		t.Fatal(err)
	}
	logged := 0
	m.SetDeltaLogger(func(rec *persist.WALRecord) {
		logged++
		if err := db.AppendWAL(rec); err != nil {
			t.Errorf("wal append: %v", err)
		}
	})

	// Live emission: each Mutate pushes one versioned batch.
	ch, cancel, err := ws[0].SubscribeDeltas(8)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	obj := term.Atom("alpha_crash")
	muts := []func(g *gcm.Model){
		func(g *gcm.Model) {
			g.AddObject(gcm.Object{ID: obj, Class: "record", Values: map[string][]term.Term{
				"location": {term.Atom("dendrite")},
				"value":    {term.Float(1.5)},
			}})
		},
		// A value change emits a del+add pair, so replay exercises both
		// directions.
		func(g *gcm.Model) {
			for _, o := range g.Objects {
				if o.ID.Equal(obj) {
					o.Values["value"] = []term.Term{term.Float(2.5)}
				}
			}
		},
	}
	var last wrapper.DeltaBatch
	for i, mut := range muts {
		ws[0].Mutate(mut)
		select {
		case b := <-ch:
			rep, out, err := m.ApplyStreamBatch(b)
			if err != nil || out != StreamApplied {
				t.Fatalf("batch %d: out=%v err=%v rep=%+v", i, out, err, rep)
			}
			last = b
		case <-time.After(5 * time.Second):
			t.Fatalf("mutation %d emitted no batch", i)
		}
	}
	if logged != len(muts) {
		t.Fatalf("logged %d wal records, want %d", logged, len(muts))
	}
	// A duplicate redelivery is stale and must not log: replaying it on
	// the next boot would double-apply the delta.
	if _, out, err := m.ApplyStreamBatch(last); err != nil || out != StreamStale {
		t.Fatalf("duplicate: out=%v err=%v", out, err)
	}
	if logged != len(muts) {
		t.Fatalf("stale batch reached the wal (%d records)", logged)
	}
	want, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	// The crash: a fresh process restores snapshot + WAL tail.
	// Durability was decided at the append, not at notification.
	m2 := newDiffMediator(t, newDiffWrappers(t, seed))
	rep := m2.RestoreFromDB(db)
	if !rep.Restored {
		t.Fatalf("restore failed: %s", rep.Reason)
	}
	if rep.Replayed != len(muts) {
		t.Fatalf("replayed %d records, want %d", rep.Replayed, len(muts))
	}
	got, err := m2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Store.Equal(want.Store) {
		t.Fatal("restored store differs from the dying process's")
	}
	if !got.Holds("instance", obj, term.Atom("record")) {
		t.Error("streamed object should classify through the bridge rules after restore")
	}
	if !got.Holds(PredSrcVal, term.Atom("alpha"), obj, term.Atom("value"), term.Float(2.5)) {
		t.Error("replay should land the post-update value, not the original")
	}
	if got.Holds(PredSrcVal, term.Atom("alpha"), obj, term.Atom("value"), term.Float(1.5)) {
		t.Error("replay resurrected the deleted value fact")
	}
	// The streamed version advanced past the fresh same-seed wrappers:
	// the restore reports the drift instead of silently re-pulling.
	if len(rep.StaleSources) != 1 || rep.StaleSources[0] != "alpha" {
		t.Errorf("stale sources = %v, want [alpha]", rep.StaleSources)
	}
}

// TestStreamReplayCrashWindowIdempotence: a crash between snapshot
// rotation and WAL reset leaves stream records the snapshot already
// contains; replaying them must converge, not double-apply.
func TestStreamReplayCrashWindowIdempotence(t *testing.T) {
	const seed = 73
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
	b := pushBatch("alpha", "alpha_idem_stream", "dendrite", ws[0].DataVersion())
	if _, out, err := m.ApplyStreamBatch(b); err != nil || out != StreamApplied {
		t.Fatalf("apply: out=%v err=%v", out, err)
	}
	want, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	// Rotate the snapshot (it now subsumes the batch), then re-append
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
		t.Fatalf("replayed %d records, want %d", rep.Replayed, len(recs))
	}
	got, err := m2.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Store.Equal(want.Store) {
		t.Fatal("double-applied stream replay diverged from the live store")
	}
}
