package mediator

// Linearizability smoke test for the serving layer's core invariant:
// concurrent queries racing incremental maintenance on one shared
// Mediator must each see exactly a pre- or post-delta state — never a
// torn mix of the two. The /v1/query and /v1/delta handlers hit exactly
// these entry points concurrently.

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/parser"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// fingerprint renders an answer's rows as one canonical string so two
// answers can be compared for set equality.
func fingerprint(ans *Answer) string {
	rows := make([]string, len(ans.Rows))
	for i, r := range datalog.RenderRows(ans.Rows) {
		rows[i] = "(" + strings.Join(r, ",") + ")"
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// linQuery touches raw source facts and the bridge-derived instance
// predicate, so both the EDB patch and the delete-and-rederive path are
// in the read set.
const linQuery = "src_val(S, O, value, V), instance(O, record)"

var linVars = []string{"S", "O", "V"}

func linAnswer(t *testing.T, m *Mediator) string {
	t.Helper()
	ans, err := m.Query(linQuery, linVars...)
	if err != nil {
		t.Fatal(err)
	}
	return fingerprint(ans)
}

// deltaBatch builds the add-batch for ApplySourceDelta: three objects'
// worth of src_obj/src_val facts on source alpha, anchored facts-wise
// at spine (index anchors are untouched — deltas move EDB facts only).
func deltaBatch() []datalog.Rule {
	var out []datalog.Rule
	sn := term.Atom("alpha")
	for i := 0; i < 3; i++ {
		id := term.Atom(fmt.Sprintf("lin_obj_%d", i))
		out = append(out,
			datalog.Fact(PredSrcObj, sn, id, term.Atom("record")),
			datalog.Fact(PredSrcVal, sn, id, term.Atom("value"), term.Float(float64(i))),
			datalog.Fact(PredSrcVal, sn, id, term.Atom("location"), term.Atom("spine")),
		)
	}
	return out
}

func TestLinearizableQueriesUnderDeltas(t *testing.T) {
	ws := newDiffWrappers(t, 11)
	m := newDiffMediator(t, ws)

	batch := deltaBatch()
	keyPre := linAnswer(t, m)
	if _, err := m.ApplySourceDelta("alpha", batch, nil); err != nil {
		t.Fatal(err)
	}
	keyPost := linAnswer(t, m)
	if keyPre == keyPost {
		t.Fatal("delta batch is invisible to the probe query; the test cannot detect torn reads")
	}
	if _, err := m.ApplySourceDelta("alpha", nil, batch); err != nil {
		t.Fatal(err)
	}
	if got := linAnswer(t, m); got != keyPre {
		t.Fatal("removing the batch did not restore the pre state")
	}

	// Mutation-side states for the SyncSources phase: the wrapper grows
	// the same three objects, observed through a version-diff refresh.
	grow := func(gm *gcm.Model) {
		for i := 0; i < 3; i++ {
			gm.AddObject(gcm.Object{
				ID:    term.Atom(fmt.Sprintf("lin_obj_%d", i)),
				Class: "record",
				Values: map[string][]term.Term{
					"location": {term.Atom("spine")},
					"value":    {term.Float(float64(i))},
				},
			})
		}
	}
	shrink := func(gm *gcm.Model) {
		kept := gm.Objects[:0]
		for _, o := range gm.Objects {
			if !strings.HasPrefix(o.ID.Name(), "lin_obj_") {
				kept = append(kept, o)
			}
		}
		gm.Objects = kept
	}
	ws[0].Mutate(grow)
	if _, err := m.SyncSources(); err != nil {
		t.Fatal(err)
	}
	keySync := linAnswer(t, m)
	ws[0].Mutate(shrink)
	if _, err := m.SyncSources(); err != nil {
		t.Fatal(err)
	}
	if got := linAnswer(t, m); got != keyPre {
		t.Fatal("sync shrink did not restore the pre state")
	}

	legal := map[string]string{keyPre: "pre", keyPost: "post-delta", keySync: "post-sync"}

	const readers = 6
	const rounds = 12
	done := make(chan struct{})
	var wg sync.WaitGroup
	errCh := make(chan error, readers+1)

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				ans, err := m.Query(linQuery, linVars...)
				if err != nil {
					errCh <- err
					return
				}
				if _, ok := legal[fingerprint(ans)]; !ok {
					errCh <- fmt.Errorf("torn answer: %d rows match neither the pre- nor any post-delta state", len(ans.Rows))
					return
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < rounds; i++ {
			// Delta phase: push the batch in, pull it out.
			if _, err := m.ApplySourceDelta("alpha", batch, nil); err != nil {
				errCh <- err
				return
			}
			if _, err := m.ApplySourceDelta("alpha", nil, batch); err != nil {
				errCh <- err
				return
			}
			// Sync phase: mutate the wrapper and version-diff it in.
			ws[0].Mutate(grow)
			if _, err := m.SyncSources(); err != nil {
				errCh <- err
				return
			}
			ws[0].Mutate(shrink)
			if _, err := m.SyncSources(); err != nil {
				errCh <- err
				return
			}
		}
	}()

	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
	if got := linAnswer(t, m); got != keyPre {
		t.Fatalf("final state diverged from the pre state")
	}
}

// TestReadersNeverWaitOnSlowRefresh: a reader of one source never waits
// on a refresh of another, even when that refresh spends 100 ms in
// every call to its wrapper. The reader loops the two mediator calls a
// served query makes, ValidateVocabulary and Query, while SYNAPSE is
// mutated and refreshed 20 times; every answer is a pre- or post-step
// answer. A reader that waited on the refresh would wait for its
// wrapper calls. The latency bounds skip under the race detector, whose
// run still checks the reads for data races. A read over a bound is
// reported with the GC pause time during it and whether a result was
// published before it (without one, the read builds under m.mu), so a
// failure names its cause.
func TestReadersNeverWaitOnSlowRefresh(t *testing.T) {
	ws, err := sources.Wrappers(11, 300, 600, 200)
	if err != nil {
		t.Fatal(err)
	}
	const latency = 100 * time.Millisecond
	m := New(sources.NeuroDM(), &Options{SourceTimeout: time.Second, MaxRetries: 1})
	var syn *wrapper.InMemory
	for _, w := range ws {
		var reg wrapper.Wrapper = w
		if w.Name() == "SYNAPSE" {
			syn = w
			reg = wrapper.NewFaulty(w, wrapper.FaultConfig{Latency: latency})
		}
		if err := m.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	const q = "src_obj('NCMIR', O, C)"
	body, aux, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	read := func() (string, error) {
		if err := m.ValidateVocabulary(body, aux); err != nil {
			return "", err
		}
		ans, err := m.Query(q)
		if err != nil {
			return "", err
		}
		return fingerprint(ans), nil
	}
	pre, err := read() // the cold build, before any read is timed
	if err != nil {
		t.Fatal(err)
	}
	legal := map[string]bool{pre: true}

	done := make(chan struct{})
	var wg sync.WaitGroup
	type timedRead struct {
		took, gcPause time.Duration
		published     bool
	}
	var reads []timedRead
	var answers []string
	var readErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		gc := []metrics.Sample{{Name: "/gc/pauses:seconds"}}
		for {
			select {
			case <-done:
				return
			default:
			}
			published := m.base.Load().Result() != nil
			paused := gcPauseTotal(gc)
			start := time.Now()
			ans, err := read()
			took := time.Since(start)
			reads = append(reads, timedRead{took, gcPauseTotal(gc) - paused, published})
			if err != nil {
				readErr = err
				return
			}
			answers = append(answers, ans)
		}
	}()
	for i := 0; i < 20; i++ {
		syn.Mutate(func(mod *gcm.Model) {
			mod.AddObject(gcm.Object{ID: term.Atom(fmt.Sprintf("rnw_%d", i)), Class: "spine_measurement", Values: map[string][]term.Term{}})
		})
		if _, err := m.RefreshSource("SYNAPSE"); err != nil {
			t.Error(err)
			break
		}
		post, err := read()
		if err != nil {
			t.Error(err)
			break
		}
		legal[post] = true
	}
	close(done)
	wg.Wait()

	if readErr != nil {
		t.Fatal(readErr)
	}
	for _, ans := range answers {
		if !legal[ans] {
			t.Fatal("a read answered neither a pre- nor a post-step state")
		}
	}
	waits := make([]time.Duration, len(reads))
	for i, r := range reads {
		waits[i] = r.took
	}
	slices.Sort(waits)
	p99, max := waits[len(waits)*99/100], waits[len(waits)-1]
	t.Logf("%d reads: p50 %v, p99 %v, max %v", len(waits), waits[len(waits)/2], p99, max)
	if raceEnabled {
		return
	}
	// over describes the (at most 10) reads that took longer than bound.
	over := func(bound time.Duration) string {
		var b strings.Builder
		n := 0
		for _, r := range reads {
			if r.took > bound && n < 10 {
				fmt.Fprintf(&b, "\n\ta read of %v: GC paused %v during it; a result was published before it: %v",
					r.took, r.gcPause, r.published)
				n++
			}
		}
		return b.String()
	}
	if p99 > 10*time.Millisecond {
		t.Errorf("p99 read took %v; want at most 10ms%s", p99, over(10*time.Millisecond))
	}
	if max >= latency {
		t.Errorf("a read took %v, as long as a wrapper call of the refresh%s", max, over(latency-1))
	}
}

// gcPauseTotal reads the runtime's GC pause histogram into s (one
// "/gc/pauses:seconds" sample, reused so the read allocates nothing)
// and returns the pause time recorded so far, each pause counted at the
// lower bound of its bucket.
func gcPauseTotal(s []metrics.Sample) time.Duration {
	metrics.Read(s)
	h := s[0].Value.Float64Histogram()
	var total float64
	for i, n := range h.Counts {
		if lo := h.Buckets[i]; n > 0 && lo > 0 {
			total += float64(n) * lo
		}
	}
	return time.Duration(total * float64(time.Second))
}
