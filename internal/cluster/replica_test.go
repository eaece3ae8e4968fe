package cluster

// The router's materialised replica: after every move it must hold
// exactly what a one-off build over the same dumps holds, and a gather
// over re-shipped dumps must patch it, not rebuild it.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
	"modelmed/internal/serve"
)

// checkReplica asserts that the router's replica, once built, is
// set-equal to a one-off build over the dumps it reflects.
func checkReplica(t *testing.T, label string, rt *Router) {
	t.Helper()
	rt.replica.write <- struct{}{}
	fb := rt.replica.fb
	var dumps []*mediator.ParsedDump
	var got *datalog.Store
	if fb != nil {
		got = fb.Result().Store
		dumps = fb.Dumps()
	}
	<-rt.replica.write
	if fb == nil {
		return
	}
	scratch, _, err := rt.rep.MoveFactBase(context.Background(), nil, dumps)
	if err != nil {
		t.Fatalf("%s: one-off build: %v", label, err)
	}
	want := scratch.Result().Store
	if !got.Equal(want) {
		adds, dels := want.Diff(got)
		t.Fatalf("%s: replica (%d facts) differs from a one-off build over its dumps (%d facts): missing %v, extra %v",
			label, got.Size(), want.Size(), dels, adds)
	}
}

// TestReplicaMoveOutlivesItsRequest: a request whose context has ended
// may give up waiting for the writer slot, but a move it starts runs to
// completion, so the next request patches the replica instead of
// paying a cold build.
func TestReplicaMoveOutlivesItsRequest(t *testing.T) {
	c := newTestCluster(t, 2026, 6, 8, 5, twoShardAssign(), nil, RouterConfig{})
	rt := c.router
	shards := rt.man.Shards()
	for _, sh := range shards {
		if g := rt.loadFacts(context.Background(), sh, nil, 0); !g.shipped {
			t.Fatalf("ship %s: %+v", sh.ID, g)
		}
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	// The slot is free and gone is done, so each advance either gives up
	// at the wait or takes the slot and moves.
	advance := func(label string) (patched, rebuilt bool) {
		t.Helper()
		for i := 0; i < 64; i++ {
			patched, rebuilt, err := rt.replica.advance(gone, rt.rep, rt.facts.state(shards), time.Minute)
			if err == nil {
				return patched, rebuilt
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: %v", label, err)
			}
		}
		t.Fatalf("%s: never took the writer slot", label)
		return false, false
	}
	if _, rebuilt := advance("first move"); !rebuilt {
		t.Fatal("first move did not build the replica")
	}
	checkReplica(t, "after the first move", rt)

	d := serve.DeltaRequest{Source: "NCMIR", Adds: []string{`src_obj('NCMIR', gone_1, protein)`}}
	if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &DeltaResponse{}, nil); status != http.StatusOK {
		t.Fatalf("delta: status %d", status)
	}
	owner, _ := rt.man.Owner("NCMIR")
	base, gen, _ := rt.facts.get(owner.ID)
	if g := rt.loadFacts(context.Background(), owner, base, gen); !g.shipped {
		t.Fatalf("re-ship %s: %+v", owner.ID, g)
	}
	if patched, _ := advance("second move"); !patched {
		t.Fatal("second move did not patch the replica")
	}
	checkReplica(t, "after the second move", rt)
	if rt.replica.res.Store.Size() == 0 {
		t.Fatal("empty replica")
	}
}

// valueToggle is the benchmark's gather delta for one source: overwrite
// one stored value of method, and write it back.
func valueToggle(t *testing.T, ref *mediator.Mediator, source, method, bench string) (on, off serve.DeltaRequest) {
	t.Helper()
	ans, err := ref.Query(fmt.Sprintf(`src_val('%s', O, %s, V)`, source, method), "O", "V")
	if err != nil || len(ans.Rows) == 0 {
		t.Fatalf("no %s value in %s: %v", method, source, err)
	}
	fact := func(v string) string {
		return fmt.Sprintf(`src_val('%s', %s, %s, %s)`, source, ans.Rows[0][0], method, v)
	}
	old := fact(ans.Rows[0][1].String())
	return serve.DeltaRequest{Source: source, Adds: []string{fact(bench)}, Dels: []string{old}},
		serve.DeltaRequest{Source: source, Adds: []string{old}, Dels: []string{fact(bench)}}
}

// TestGatherCyclePatches replays the router_gather benchmark's cycle —
// a value toggle on shard0, three gathers, a value toggle on shard1,
// three gathers — eight times with four more gather readers running
// alongside. Every answer is the monolith's in one of the cycle's two
// states; the replica is built once, every delta is followed by at
// least one patch, and no patch happens without a re-shipped dump.
func TestGatherCyclePatches(t *testing.T) {
	c := newTestCluster(t, 2026, 14, 18, 10, twoShardAssign(), nil, RouterConfig{})
	ref := newReference(t, 2026, 14, 18, 10, nil)
	q := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`,
		Vars: []string{"Root", "P", "Org", "T", "N"}, NoCache: true}
	synOn, synOff := valueToggle(t, ref, "SYNAPSE", "condition", `"bench"`)
	ncmOn, ncmOff := valueToggle(t, ref, "NCMIR", "amount", "1000.5")

	// The NCMIR toggle moves the answer between two states; the SYNAPSE
	// toggle does not.
	var want [2]string
	want[0] = strings.Join(refRowSet(t, ref, q.Query, q.Vars), "\n")
	applyReferenceDelta(t, ref, ncmOn)
	want[1] = strings.Join(refRowSet(t, ref, q.Query, q.Vars), "\n")
	if want[0] == want[1] {
		t.Fatal("the NCMIR toggle does not change the answer")
	}
	cycle := []serve.DeltaRequest{synOn, ncmOn, synOff, ncmOff}
	state := []int{0, 1, 1, 0}

	body, err := json.Marshal(q)
	if err != nil {
		t.Fatal(err)
	}
	// ask runs on the readers' goroutines too, so it reports instead of
	// failing the test.
	ask := func() (string, error) {
		hr, err := testHTTP.Post(c.base()+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			return "", err
		}
		defer hr.Body.Close()
		var resp QueryResponse
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			return "", err
		}
		if hr.StatusCode != http.StatusOK || resp.Partial {
			return "", fmt.Errorf("status %d partial %v", hr.StatusCode, resp.Partial)
		}
		return strings.Join(rowSet(resp.Rows), "\n"), nil
	}
	if got, err := ask(); err != nil || got != want[0] {
		t.Fatalf("first gather: %v (answer matches: %v)", err, got == want[0])
	}
	ctr := c.router.Counters()
	if n := ctr.Get("router.replica_rebuilds"); n != 1 {
		t.Fatalf("first gather: %d replica rebuilds, want 1", n)
	}
	fetches0, patches0 := ctr.Get("router.facts_fetches"), ctr.Get("router.replica_patches")

	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				got, err := ask()
				if err == nil && got != want[0] && got != want[1] {
					err = fmt.Errorf("answer in neither state")
				}
				if err != nil {
					errs <- err
					return
				}
				reads.Add(1)
			}
		}()
	}
	for n := 0; n < 2*8; n++ {
		d := cycle[n%len(cycle)]
		var dr DeltaResponse
		if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &dr, nil); status != http.StatusOK {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("delta %d to %s: status %d", n, d.Source, status)
		}
		for k := 0; k < 3; k++ {
			if got, err := ask(); err != nil || got != want[state[n%len(state)]] {
				stop.Store(true)
				wg.Wait()
				t.Fatalf("delta %d gather %d: %v (want state %d)", n, k, err, state[n%len(state)])
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("reader: %v", err)
	}
	if reads.Load() == 0 {
		t.Fatal("the readers never completed a gather")
	}
	if n := ctr.Get("router.replica_rebuilds"); n != 1 {
		t.Errorf("%d replica rebuilds, want 1", n)
	}
	reships := ctr.Get("router.facts_fetches") - fetches0
	patches := ctr.Get("router.replica_patches") - patches0
	// The first gather after each of the 16 deltas must see it, so it
	// moved the replica; a move needs a newer dump, so a re-ship.
	if patches < 16 || patches > reships {
		t.Errorf("%d re-ships, %d patches: want 16 <= patches <= re-ships", reships, patches)
	}
	checkReplica(t, "after the cycle", c.router)
}
