package mediator

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// streamFact builds a ground namespaced fact.
func streamFact(pred, src string, args ...term.Term) datalog.Rule {
	return datalog.Fact(pred, append([]term.Term{term.Atom(src)}, args...)...)
}

// pushBatch is a hand-built batch adding one anchored object.
func pushBatch(src, obj, concept string, from uint64) wrapper.DeltaBatch {
	o := term.Atom(obj)
	return wrapper.DeltaBatch{
		Source:      src,
		FromVersion: from,
		ToVersion:   from + 1,
		Adds: []datalog.Rule{
			streamFact(PredSrcObj, src, o, term.Atom("record")),
			streamFact(PredSrcVal, src, o, term.Atom("value"), term.Float(7)),
			streamFact(PredSrcVal, src, o, term.Atom("location"), term.Atom(concept)),
		},
		AnchorAdds: []datalog.Rule{
			streamFact(PredAnchor, src, o, term.Atom(concept)),
		},
	}
}

func TestApplyStreamBatchSequencing(t *testing.T) {
	ws := newDiffWrappers(t, 3)
	m := newDiffMediator(t, ws)
	m.EnableTracing(true)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	dv := ws[0].DataVersion()

	// Exact continuation applies incrementally.
	b := pushBatch("alpha", "alpha_live", "dendrite", dv)
	rep, out, err := m.ApplyStreamBatch(b)
	if err != nil || out != StreamApplied {
		t.Fatalf("apply: rep=%+v out=%v err=%v", rep, out, err)
	}
	if rep.Full || rep.FactsAdded != 3 || rep.AnchorsAdded != 1 {
		t.Fatalf("report = %+v", rep)
	}
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Holds("instance", term.Atom("alpha_live"), term.Atom("record")) {
		t.Error("streamed object should classify through the bridge rules")
	}
	if !res.Holds(PredAnchor, term.Atom("alpha"), term.Atom("alpha_live"), term.Atom("dendrite")) {
		t.Error("streamed anchor should be in the store")
	}

	// A duplicate delivery is stale: dropped without touching the cache.
	rep, out, err = m.ApplyStreamBatch(b)
	if err != nil || out != StreamStale {
		t.Fatalf("duplicate: out=%v err=%v", out, err)
	}
	if rep.FactsAdded != 0 {
		t.Fatalf("stale batch mutated the snapshot: %+v", rep)
	}
	if got := m.ObsCounters().Get("mediator.stream_stale"); got != 1 {
		t.Errorf("stream_stale = %d", got)
	}

	// A skipped version is a gap: targeted refresh, observable counter.
	gap := pushBatch("alpha", "alpha_gap", "spine", dv+5)
	_, out, err = m.ApplyStreamBatch(gap)
	if err != nil || out != StreamResynced {
		t.Fatalf("gap: out=%v err=%v", out, err)
	}
	if got := m.ObsCounters().Get("mediator.stream_resync"); got != 1 {
		t.Errorf("stream_resync = %d", got)
	}
	// The refresh re-pulled the wrapper, which never had the pushed
	// object: the materialization converges to the source of truth.
	res, err = m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Holds("instance", term.Atom("alpha_live"), term.Atom("record")) {
		t.Error("resync should converge to the wrapper's state")
	}

	// A source-marked resync refreshes too.
	_, out, err = m.ApplyStreamBatch(wrapper.DeltaBatch{Source: "alpha", Resync: true})
	if err != nil || out != StreamResynced {
		t.Fatalf("resync marker: out=%v err=%v", out, err)
	}

	// Errors: unknown source, non-ground fact.
	if _, _, err := m.ApplyStreamBatch(wrapper.DeltaBatch{Source: "nope"}); err == nil {
		t.Error("unknown source should be rejected")
	}
	bad := wrapper.DeltaBatch{Source: "alpha", Adds: []datalog.Rule{
		datalog.Fact(PredSrcObj, term.Atom("alpha"), term.Var("X"), term.Atom("record"))}}
	if _, _, err := m.ApplyStreamBatch(bad); err == nil {
		t.Error("non-ground fact should be rejected")
	}
}

func TestApplyStreamBatchUnknownConceptResyncs(t *testing.T) {
	ws := newDiffWrappers(t, 5)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	dv := ws[0].DataVersion()
	b := pushBatch("alpha", "alpha_new", "uncharted_region", dv)
	_, out, err := m.ApplyStreamBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if out != StreamResynced {
		t.Errorf("anchor at unknown concept must resync, got %v", out)
	}
}

func TestApplyStreamBatchUpdatesSemanticIndex(t *testing.T) {
	ws := newDiffWrappers(t, 9)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	dv := ws[0].DataVersion()
	if _, out, err := m.ApplyStreamBatch(pushBatch("alpha", "alpha_ix", "soma", dv)); err != nil || out != StreamApplied {
		t.Fatalf("out=%v err=%v", out, err)
	}
	found := false
	for _, src := range m.Index().SourcesAt("soma") {
		if src == "alpha" {
			found = true
		}
	}
	if !found {
		t.Error("semantic index should route soma to alpha after the anchor add")
	}
}

func TestStreamOutcomeString(t *testing.T) {
	cases := map[StreamOutcome]string{
		StreamApplied: "applied", StreamStale: "stale", StreamResynced: "resynced", StreamOutcome(99): "invalid"}
	for o, want := range cases {
		if o.String() != want {
			t.Errorf("%d.String() = %q", o, o.String())
		}
	}
}

// TestStartFeedsEndToEnd: a Mutate on a streaming source reaches the
// materialization with no SyncSources call — the push inversion.
func TestStartFeedsEndToEnd(t *testing.T) {
	ws := newDiffWrappers(t, 21)
	m := newDiffMediator(t, ws)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	var reports []string
	repCh := make(chan *DeltaReport, 64)
	feeds := m.StartFeeds(context.Background(), FeedOptions{
		ResubscribeDelay: time.Millisecond,
		OnReport:         func(rep *DeltaReport) { repCh <- rep },
	})
	defer feeds.Stop()
	if len(feeds.Sources) != 2 {
		t.Fatalf("feeds.Sources = %v", feeds.Sources)
	}
	obj := term.Atom("alpha_pushed_live")
	ws[0].Mutate(func(mod *gcm.Model) {
		mod.AddObject(gcm.Object{ID: obj, Class: "record", Values: map[string][]term.Term{
			"location": {term.Atom("dendrite")}, "value": {term.Float(1)}}})
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		res, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		if res.Holds("instance", obj, term.Atom("record")) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("mutation never reached the materialization via the feed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// The report hook fired for the change (the serving layer's cache
	// invalidation rides it).
	select {
	case rep := <-repCh:
		reports = append(reports, rep.String())
	case <-time.After(5 * time.Second):
		t.Fatal("no OnReport for the applied batch")
	}
	_ = reports
}

// TestStreamChaosConvergence drives faulty streaming feeds — batch
// drops, duplicates, reorders, periodic disconnects — under concurrent
// query load, and checks the mediator converges to the fault-free
// materialization with gap detection observable on the
// mediator.stream_resync counter.
func TestStreamChaosConvergence(t *testing.T) {
	for _, seed := range []int64{1, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			inner := newDiffWrappers(t, seed)
			m, faulty := newChaosStreamMediator(t, inner, seed)
			m.EnableTracing(true)
			if _, err := m.Materialize(); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			feeds := m.StartFeeds(ctx, FeedOptions{
				Buffer:           4,
				ResubscribeDelay: time.Millisecond,
			})
			defer feeds.Stop()

			// Concurrent subscriber-style load: readers hammer a view
			// query while the feeds churn.
			stop := make(chan struct{})
			done := make(chan error, 4)
			for i := 0; i < 4; i++ {
				go func() {
					for {
						select {
						case <-stop:
							done <- nil
							return
						default:
						}
						if _, err := m.Query("covered(C)", "C"); err != nil {
							done <- err
							return
						}
					}
				}()
			}

			// The seeded mutation script.
			for i := 0; i < 30; i++ {
				w := inner[i%len(inner)]
				w.Mutate(mutateModel(newScriptRand(seed, i), w.Name(), i))
				time.Sleep(2 * time.Millisecond)
			}

			// Quiesce: empty mutations flush reordered tails and close
			// any gap left by a trailing drop; the feed loop repairs as
			// they arrive.
			reference := func() *datalog.Store {
				ref := newDiffMediator(t, inner)
				res, err := ref.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				return res.Store
			}
			deadline := time.Now().Add(60 * time.Second)
			converged := false
			for !converged {
				for _, w := range inner {
					w.Mutate(func(*gcm.Model) {})
				}
				time.Sleep(20 * time.Millisecond)
				res, err := m.Materialize()
				if err != nil {
					t.Fatal(err)
				}
				converged = res.Store.Equal(reference())
				if time.Now().After(deadline) {
					t.Fatal("mediator never converged to the fault-free materialization")
				}
			}
			close(stop)
			for i := 0; i < 4; i++ {
				if err := <-done; err != nil {
					t.Errorf("reader: %v", err)
				}
			}
			c := m.ObsCounters()
			if got := c.Get("mediator.stream_resync"); got == 0 {
				t.Error("gap detection never fired: stream_resync = 0")
			}
			if got := c.Get("mediator.stream_applied"); got == 0 {
				t.Error("no batch ever applied cleanly: stream_applied = 0")
			}
			var drops, disc int
			for _, f := range faulty {
				st := f.StreamFaultStats()
				drops += st.Drops
				disc += st.Disconnects
			}
			if drops == 0 || disc == 0 {
				t.Errorf("chaos schedule too tame: drops=%d disconnects=%d", drops, disc)
			}
		})
	}
}

// newScriptRand derives the per-mutation RNG so the same script can be
// replayed on independent wrapper sets.
func newScriptRand(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1000003 + int64(i)))
}

// newChaosStreamMediator registers Faulty-wrapped streaming sources
// with an aggressive stream-fault schedule.
func newChaosStreamMediator(t *testing.T, inner []*wrapper.InMemory, seed int64) (*Mediator, []*wrapper.Faulty) {
	t.Helper()
	m := New(sources.NeuroDM(), &Options{})
	var faulty []*wrapper.Faulty
	for _, w := range inner {
		f := wrapper.NewFaulty(w, wrapper.FaultConfig{
			Seed: seed,
			Stream: wrapper.StreamFaults{
				DisconnectEvery: 6,
				DuplicateProb:   0.2,
				DropProb:        0.25,
				ReorderProb:     0.2,
			},
		})
		faulty = append(faulty, f)
		if err := m.Register(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineView(incrViews); err != nil {
		t.Fatal(err)
	}
	return m, faulty
}
