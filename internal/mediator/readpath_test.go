package mediator

// The read path takes no lock and reads no wrapper once a result is
// published: reading a source is a writer's job, done before the writer
// takes m.mu. These tests hold the mediator to that with a source that
// hangs, a lock held from the test, and a refresh through a slow
// wrapper.

import (
	"cmp"
	"context"
	"fmt"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/parser"
	"modelmed/internal/sources"
	"modelmed/internal/srcstate"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// registerWith registers the neuroscience sources at (11, 300, 600,
// 200), the one named faulty wrapped with cfg, and returns that
// source's unwrapped wrapper.
func registerWith(t *testing.T, m *Mediator, faulty string, cfg wrapper.FaultConfig) *wrapper.InMemory {
	t.Helper()
	ws, err := sources.Wrappers(11, 300, 600, 200)
	if err != nil {
		t.Fatal(err)
	}
	var inner *wrapper.InMemory
	for _, w := range ws {
		var reg wrapper.Wrapper = w
		if w.Name() == faulty {
			inner = w
			reg = wrapper.NewFaulty(w, cfg)
		}
		if err := m.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	return inner
}

// TestReadersNeverWaitOnDownSource: a reader never waits on a source
// that is down. SENSELAB hangs on every call, past the 100 ms per-call
// deadline, so the build leaves it out, and its breaker cools down every
// 50 ms. For 2 s a reader loops a query over NCMIR while a writer syncs
// every 50 ms; each sync reads SENSELAB again once its breaker admits a
// call, and waits out the deadline. No read re-probes it, and no read
// waits for a sync: every read answers the cold build's answer, and p99
// stays within 10 ms. The cold build's garbage is collected before the
// reads are timed, and a failure reports the GC pause time during each
// slow read. The latency bound skips under the race detector.
func TestReadersNeverWaitOnDownSource(t *testing.T) {
	m := New(sources.NeuroDM(), &Options{
		SourceTimeout: 100 * time.Millisecond,
		Breaker:       breaker.Config{Threshold: 1, Cooldown: 50 * time.Millisecond},
	})
	registerWith(t, m, "SENSELAB", wrapper.FaultConfig{HangProb: 1, Hang: 2 * time.Second})
	const q = "src_obj('NCMIR', O, C)"
	ans, err := m.Query(q) // the cold build, before any read is timed
	if err != nil {
		t.Fatal(err)
	}
	if m.base.Load().State("SENSELAB") != nil {
		t.Fatal("the build held a state of the hanging source")
	}
	pre := fingerprint(ans)
	runtime.GC()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	syncs := 0
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if _, err := m.SyncSources(); err != nil {
				t.Error(err)
				return
			}
			syncs++
		}
	}()
	type timedRead struct{ took, gcPause time.Duration }
	var reads []timedRead
	gc := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
	for start := time.Now(); time.Since(start) < 2*time.Second; time.Sleep(200 * time.Microsecond) {
		paused, t0 := gcPauseTotal(gc), time.Now()
		ans, err := m.Query(q)
		reads = append(reads, timedRead{time.Since(t0), gcPauseTotal(gc) - paused})
		if err != nil {
			t.Fatal(err)
		}
		if fingerprint(ans) != pre || !slices.Equal(ans.Missing, []string{"SENSELAB"}) {
			t.Fatalf("a read answered %d rows missing %v, not the cold build's answer", len(ans.Rows), ans.Missing)
		}
	}
	close(done)
	wg.Wait()
	if r := reportFor(t, m.SourceReports(), "SENSELAB"); r.Status != StatusFailed {
		t.Errorf("SENSELAB report = %+v, want failed", r)
	}
	slices.SortFunc(reads, func(a, b timedRead) int { return cmp.Compare(a.took, b.took) })
	p99, max := reads[len(reads)*99/100].took, reads[len(reads)-1].took
	slow := 0
	for _, r := range reads {
		if r.took > 50*time.Millisecond {
			slow++
		}
	}
	t.Logf("%d reads during %d syncs: p50 %v, p99 %v, max %v, %d over 50ms",
		len(reads), syncs, reads[len(reads)/2].took, p99, max, slow)
	if syncs == 0 {
		t.Fatal("no sync ran")
	}
	if raceEnabled {
		return
	}
	if p99 > 10*time.Millisecond {
		var b strings.Builder
		for _, r := range reads[len(reads)*99/100:] {
			fmt.Fprintf(&b, "\n\ta read of %v: GC paused %v during it", r.took, r.gcPause)
		}
		t.Errorf("p99 read took %v; want at most 10ms%s", p99, b.String())
	}
}

// TestReadsTakeNoLock: once a result is published, no read takes m.mu.
// The test holds m.mu, as a writer committing would, and every read
// entry point must still return.
func TestReadsTakeNoLock(t *testing.T) {
	m := newNeuroMediator(t, 30, 60, 20)
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	const q = "anchor(S, O, purkinje_cell), src_val(S, O, amount, A)"
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := m.Prepare(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	reads := []struct {
		name string
		read func() error
	}{
		{"Query", func() error { _, err := m.Query(q); return err }},
		// A text not prepared before: the miss path takes no m.mu either.
		{"Prepare", func() error { _, err := m.Prepare("src_obj(S, O, C)", nil); return err }},
		{"QueryParsed", func() error { _, err := m.QueryParsed(ctx, p); return err }},
		{"Holds", func() error {
			_, err := m.Holds(PredSrcObj, term.Atom("NCMIR"), term.Atom("x"), term.Atom("y"))
			return err
		}},
		{"ValidateVocabulary", func() error { return m.ValidateVocabulary(body, aux) }},
		{"Sources", func() error { m.Sources(); return nil }},
		{"Source", func() error { m.Source("NCMIR"); return nil }},
		{"Views", func() error { m.Views(); return nil }},
		{"Index().SourcesAt", func() error { m.Index().SourcesAt("purkinje_cell"); return nil }},
		{"PlannedQuery", func() error { _, _, err := m.PlannedQuery(q); return err }},
		{"FactsDump", func() error { _, err := m.FactsDump(ctx); return err }},
		{"SnapshotState", func() error { _, err := m.SnapshotState(); return err }},
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, r := range reads {
		errc := make(chan error, 1)
		go func() { errc <- r.read() }()
		select {
		case err := <-errc:
			if err != nil {
				t.Errorf("%s: %v", r.name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s waited on m.mu", r.name)
		}
	}
}

// TestPushDuringSlowRefresh: a writer reads a source before it takes
// m.mu, so a push to one source never waits on a refresh of another,
// even when that refresh spends 100 ms in every call to its wrapper.
// SENSELAB is pushed to every 20 ms while SYNAPSE is mutated and
// refreshed; each push returns within 10 ms (the bound skips under the
// race detector). Afterwards the published result equals a build from
// scratch over the states held, which hold both the pushes and the
// mutation.
func TestPushDuringSlowRefresh(t *testing.T) {
	m := New(sources.NeuroDM(), &Options{SourceTimeout: time.Second, MaxRetries: 1})
	syn := registerWith(t, m, "SYNAPSE", wrapper.FaultConfig{Latency: 100 * time.Millisecond})
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Materialize(); err != nil {
		t.Fatal(err)
	}
	syn.Mutate(func(mod *gcm.Model) {
		mod.AddObject(gcm.Object{ID: term.Atom("pdr_syn"), Class: "spine_measurement", Values: map[string][]term.Term{}})
	})
	runtime.GC() // the builds' garbage, before any push is timed
	refreshed := make(chan error, 1)
	go func() {
		_, err := m.RefreshSource("SYNAPSE")
		refreshed <- err
	}()
	var during []time.Duration
pushes:
	for i := 0; ; i++ {
		time.Sleep(20 * time.Millisecond)
		select {
		case err := <-refreshed:
			if err != nil {
				t.Fatal(err)
			}
			break pushes
		default:
		}
		obj := term.Atom(fmt.Sprintf("pdr_sl_%d", i))
		t0 := time.Now()
		if _, err := m.ApplySourceDelta("SENSELAB", []datalog.Rule{
			datalog.Fact(PredSrcObj, term.Atom("SENSELAB"), obj, term.Atom("neurotransmission")),
		}, nil); err != nil {
			t.Fatal(err)
		}
		during = append(during, time.Since(t0))
	}
	if len(during) == 0 {
		t.Fatal("no push started during the refresh")
	}
	max := slices.Max(during)
	t.Logf("%d pushes started during the refresh: max %v", len(during), max)
	if !raceEnabled && max > 10*time.Millisecond {
		t.Errorf("a push during the refresh took %v; want at most 10ms", max)
	}

	v := m.base.Load()
	if !v.State("SYNAPSE").Facts.ContainsKey(srcObjKey, []term.Term{term.Atom("SYNAPSE"), term.Atom("pdr_syn"), term.Atom("spine_measurement")}) {
		t.Error("the refresh did not commit the mutation")
	}
	if !v.State("SENSELAB").Facts.ContainsKey(srcObjKey, []term.Term{term.Atom("SENSELAB"), term.Atom("pdr_sl_0"), term.Atom("neurotransmission")}) {
		t.Error("the refresh's commit lost a push")
	}
	m.mu.Lock()
	e, err := m.newProgramEngineLocked(nil)
	m.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err := srcstate.Build(context.Background(), e, v.States(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Result().Store.Equal(want.Result().Store) {
		t.Error("the published result differs from a build from scratch over the held states")
	}
}
