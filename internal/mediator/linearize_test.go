package mediator

// Linearizability smoke test for the serving layer's core invariant:
// concurrent queries racing incremental maintenance on one shared
// Mediator must each see exactly a pre- or post-delta state — never a
// torn mix of the two. The /v1/query and /v1/delta handlers hit exactly
// these entry points concurrently.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/term"
)

// fingerprint renders an answer's rows as one canonical string so two
// answers can be compared for set equality.
func fingerprint(ans *Answer) string {
	rows := make([]string, len(ans.Rows))
	for i, r := range ans.Rows {
		rows[i] = term.FormatTuple(r)
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
