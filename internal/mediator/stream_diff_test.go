package mediator

// Differential harness for the streaming-federation layer: for ~100
// seeded mutation sequences, the same script delivered three ways must
// produce set-equal materializations —
//
//   (a) streaming: each wrapper's SubscribeDeltas feed drained through
//       ApplyStreamBatch (the push path, applied batch by batch);
//   (b) batch: the same script on an independent wrapper set, pulled
//       by SyncSources (the PR 4 machinery);
//   (c) scratch: a fresh mediator materializing the mutated wrappers
//       from nothing.
//
// The script is replayable because every mutation draws from its own
// derived RNG, so independent wrapper sets walk identical histories.
//
// TestSourceRoutesAgree narrows the same script to one mutation per
// step and adds the push route: stream, push and pull must then agree
// step by step on the report too, and their WAL tails must restore the
// same store.

import (
	"fmt"
	"slices"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/persist"
	"modelmed/internal/wrapper"
)

// streamScript is a seeded mutation script: steps of (wrapper index,
// mutation sub-seed) pairs.
type streamScript [][]scriptMut

type scriptMut struct {
	wIdx    int
	subSeed int64
}

func makeStreamScript(seed int64, nWrappers int) streamScript {
	r := newScriptRand(seed, 0xc0ffee)
	s := make(streamScript, 3)
	for step := range s {
		n := 1 + r.Intn(3)
		for i := 0; i < n; i++ {
			s[step] = append(s[step], scriptMut{r.Intn(nWrappers), r.Int63()})
		}
	}
	return s
}

// applyScriptStep replays one step of the script onto a wrapper set.
func applyScriptStep(ws []*wrapper.InMemory, step int, muts []scriptMut) {
	for _, mu := range muts {
		w := ws[mu.wIdx]
		w.Mutate(mutateModel(newScriptRand(mu.subSeed, step), w.Name(), step))
	}
}

func runStreamDiffSequence(t *testing.T, seed int64) {
	wsStream := newDiffWrappers(t, seed)
	wsBatch := newDiffWrappers(t, seed)
	mStream := newDiffMediator(t, wsStream)
	mBatch := newDiffMediator(t, wsBatch)
	if _, err := mStream.Materialize(); err != nil {
		t.Fatal(err)
	}
	if _, err := mBatch.Materialize(); err != nil {
		t.Fatal(err)
	}
	// Subscribe before the script starts: the feeds see every version.
	chans := make([]<-chan wrapper.DeltaBatch, len(wsStream))
	for i, w := range wsStream {
		ch, cancel, err := w.SubscribeDeltas(64)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		chans[i] = ch
	}
	script := makeStreamScript(seed, len(wsStream))
	for step, muts := range script {
		label := fmt.Sprintf("seed=%d/step=%d", seed, step)
		applyScriptStep(wsStream, step, muts)
		applyScriptStep(wsBatch, step, muts)
		// (a) streaming: drain exactly the batches this step emitted.
		// Emission is synchronous inside Mutate, so they are queued.
		perWrapper := make([]int, len(wsStream))
		for _, mu := range muts {
			perWrapper[mu.wIdx]++
		}
		for i, n := range perWrapper {
			for j := 0; j < n; j++ {
				b := <-chans[i]
				rep, out, err := mStream.ApplyStreamBatch(b)
				if err != nil {
					t.Fatalf("%s: stream apply: %v", label, err)
				}
				if out != StreamApplied {
					t.Fatalf("%s: clean feed batch %d/%d of %s not applied: %v (rep %+v)",
						label, j, n, wsStream[i].Name(), out, rep)
				}
				if rep.Full {
					t.Errorf("%s: streamed batch fell back to full rebuild", label)
				}
			}
		}
		// (b) batch: version-driven pull on the twin wrapper set.
		reps, err := mBatch.SyncSources()
		if err != nil {
			t.Fatalf("%s: sync: %v", label, err)
		}
		for _, rep := range reps {
			if rep.Full {
				t.Errorf("%s: %s fell back to full rebuild", label, rep.Source)
			}
		}
		// stream ≡ batch.
		resStream, err := mStream.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		resBatch, err := mBatch.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if !resStream.Store.Equal(resBatch.Store) {
			t.Fatalf("%s: streaming and batch materializations differ", label)
		}
		// batch ≡ scratch (and hence stream ≡ scratch).
		checkAgainstScratch(t, label, mStream, wsStream)
	}
}

// TestMediatorStreamDifferential runs ~100 seeded sequences (50 seeds
// x GOMAXPROCS 1/4; 20 under -short) of 3 steps each, each delivered
// by streaming feed, by batch sync, and from scratch.
func TestMediatorStreamDifferential(t *testing.T) {
	seeds := int64(50)
	if testing.Short() {
		seeds = 10
	}
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", procs), func(t *testing.T) {
			setProcs(t, procs)
			for seed := int64(0); seed < seeds; seed++ {
				runStreamDiffSequence(t, seed)
			}
		})
	}
}

// routeCounts is the part of a DeltaReport every route must agree on.
type routeCounts struct {
	FactsAdded, FactsRemoved, AnchorsAdded, AnchorsRemoved int
	Inserted, Deleted, Overdeleted, Rederived              int
}

func countsOf(rep *DeltaReport) routeCounts {
	c := routeCounts{rep.FactsAdded, rep.FactsRemoved, rep.AnchorsAdded, rep.AnchorsRemoved, 0, 0, 0, 0}
	if st := rep.Stats; st != nil {
		c.Inserted, c.Deleted, c.Overdeleted, c.Rederived = st.Inserted, st.Deleted, st.Overdeleted, st.Rederived
	}
	return c
}

// runSourceRoutes delivers one seeded single-mutation script to three
// mediators over twin wrapper sets: by ApplyStreamBatch, by
// ApplySourceDelta of each batch's facts and anchors, and by
// RefreshSource.
func runSourceRoutes(t *testing.T, seed int64) {
	routes := []string{"stream", "push", "pull"}
	wss := make([][]*wrapper.InMemory, len(routes))
	ms := make([]*Mediator, len(routes))
	dbs := make([]*persist.DB, len(routes))
	replayed := make([]int, len(routes))
	for i := range routes {
		wss[i] = newDiffWrappers(t, seed)
		ms[i] = newDiffMediator(t, wss[i])
		if _, err := ms[i].Materialize(); err != nil {
			t.Fatal(err)
		}
		dbs[i] = newPersistDB(t)
	}
	// One snapshot under every route's WAL: the start states are equal.
	base, err := ms[0].SnapshotState()
	if err != nil {
		t.Fatal(err)
	}
	for i, db := range dbs {
		if err := db.SaveSnapshot(base); err != nil {
			t.Fatal(err)
		}
		ms[i].SetDeltaLogger(func(rec *persist.WALRecord) {
			replayed[i]++
			if err := db.AppendWAL(rec); err != nil {
				t.Errorf("%s: wal append: %v", routes[i], err)
			}
		})
	}
	chans := make([]<-chan wrapper.DeltaBatch, len(wss[0]))
	for i, w := range wss[0] {
		ch, cancel, err := w.SubscribeDeltas(4)
		if err != nil {
			t.Fatal(err)
		}
		defer cancel()
		chans[i] = ch
	}
	r := newScriptRand(seed, 0x7a11)
	for step := 0; step < 6; step++ {
		label := fmt.Sprintf("seed=%d/step=%d", seed, step)
		wIdx, sub := r.Intn(len(wss[0])), r.Int63()
		for _, ws := range wss {
			ws[wIdx].Mutate(mutateModel(newScriptRand(sub, step), ws[wIdx].Name(), step))
		}
		b := <-chans[wIdx]
		reps := make([]*DeltaReport, len(routes))
		var out StreamOutcome
		if reps[0], out, err = ms[0].ApplyStreamBatch(b); err != nil || out != StreamApplied {
			t.Fatalf("%s: stream: out=%v err=%v", label, out, err)
		}
		if reps[1], err = ms[1].ApplySourceDelta(b.Source, slices.Concat(b.Adds, b.AnchorAdds), slices.Concat(b.Dels, b.AnchorDels)); err != nil {
			t.Fatalf("%s: push: %v", label, err)
		}
		if reps[2], err = ms[2].RefreshSource(b.Source); err != nil {
			t.Fatalf("%s: pull: %v", label, err)
		}
		want := storeOf(t, ms[0])
		for i, rep := range reps {
			if rep.Full {
				t.Errorf("%s: %s fell back to a full rebuild", label, routes[i])
			}
			if got, want := countsOf(rep), countsOf(reps[0]); got != want {
				t.Errorf("%s: %s report %+v, stream report %+v", label, routes[i], got, want)
			}
			if !storeOf(t, ms[i]).Equal(want) {
				t.Fatalf("%s: %s store differs from the streamed one", label, routes[i])
			}
		}
		checkAgainstScratch(t, label, ms[0], wss[0])
		ref := newDiffMediator(t, wss[0])
		for _, c := range diffConcepts {
			for i, m := range ms {
				if got, want := m.Index().SourcesAt(c), ref.Index().SourcesAt(c); !slices.Equal(got, want) {
					t.Errorf("%s: %s indexes %s at %v, a scratch registration at %v", label, routes[i], c, got, want)
				}
			}
		}
	}
	// Each route's WAL tail, replayed onto the shared snapshot by a
	// fresh process, lands on the same store and the same index.
	want := storeOf(t, ms[0])
	for i, db := range dbs {
		m := newDiffMediator(t, newDiffWrappers(t, seed))
		rep := m.RestoreFromDB(db)
		if !rep.Restored || rep.Replayed != replayed[i] {
			t.Fatalf("seed=%d: %s restore: %+v, want %d records replayed", seed, routes[i], rep, replayed[i])
		}
		if !storeOf(t, m).Equal(want) {
			t.Fatalf("seed=%d: %s WAL replay differs from the live store", seed, routes[i])
		}
		for _, c := range diffConcepts {
			if got, want := m.Index().SourcesAt(c), ms[0].Index().SourcesAt(c); !slices.Equal(got, want) {
				t.Errorf("seed=%d: %s replay indexes %s at %v, live %v", seed, routes[i], c, got, want)
			}
		}
	}
}

// storeOf returns m's current materialized store.
func storeOf(t *testing.T, m *Mediator) *datalog.Store {
	t.Helper()
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return res.Store
}

// TestSourceRoutesAgree: push, pull and stream are three adapters over
// one source move, so the same change must give the same store, the
// same report and a WAL that replays to the same state on every route.
func TestSourceRoutesAgree(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		runSourceRoutes(t, seed)
	}
}
