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

import (
	"fmt"
	"testing"

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
