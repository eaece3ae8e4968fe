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
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/mediator"
	"modelmed/internal/parser"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
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
		if g := rt.loadFacts(context.Background(), sh, nil); !g.shipped {
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
			_, patched, rebuilt, err := rt.replica.advance(gone, rt.rep, rt.facts.state(shards), time.Minute)
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
	// The routed delta patched the router's dump of NCMIR: the move
	// needs no re-ship.
	if n := rt.ctr.Get("router.dump_patches"); n != 1 {
		t.Fatalf("%d dump patches after the routed delta, want 1", n)
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
// states; the replica is built once, every delta patches the router's
// dump of its source and is followed by at least one replica patch,
// and no shard is re-shipped after its first gather.
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
	// moved the replica; the delta patched the dump it moves to.
	if reships != 0 || patches < 16 {
		t.Errorf("%d re-ships, %d replica patches: want none and >= 16", reships, patches)
	}
	if n := ctr.Get("router.dump_patches"); n != 16 {
		t.Errorf("%d dump patches, want 16", n)
	}
	checkReplica(t, "after the cycle", c.router)
}

// TestRoutedDeltaReshipsNothing: once every shard has shipped its
// dumps, a routed delta patches the router's dump of its source before
// its 200, so the gather after it re-ships nothing. Sixteen deltas,
// each followed by a gather that agrees with the monolith; /metrics
// counts the sixteen dump patches.
func TestRoutedDeltaReshipsNothing(t *testing.T) {
	c := newTestCluster(t, 2026, 6, 8, 5, twoShardAssign(), nil, RouterConfig{})
	ref := newReference(t, 2026, 6, 8, 5, nil)
	gather := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`,
		Vars: []string{"Root", "P", "Org", "T", "N"}, NoCache: true}
	ask := func(label string) {
		t.Helper()
		resp, status := routerQuery(t, c.base(), gather)
		if status != http.StatusOK || resp.Mode != ModeGather.String() {
			t.Fatalf("%s: status %d mode %s", label, status, resp.Mode)
		}
		checkEqual(t, label, resp, ref, gather.Query, gather.Vars)
	}
	ask("first gather")
	ctr := c.router.Counters()
	fetches0 := ctr.Get("router.facts_fetches")
	dl := &deltaLog{}
	r := rand.New(rand.NewSource(5))
	srcs := []string{"SYNAPSE", "SENSELAB", "NCMIR"}
	for i := 0; i < 16; i++ {
		d := dl.nextDelta(r, srcs)
		if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &DeltaResponse{}, nil); status != http.StatusOK {
			t.Fatalf("delta %d: status %d", i, status)
		}
		applyReferenceDelta(t, ref, d)
		ask(fmt.Sprintf("gather after delta %d", i))
	}
	if n := ctr.Get("router.facts_fetches") - fetches0; n != 0 {
		t.Errorf("%d re-ships across 16 routed deltas, want 0", n)
	}
	hr, err := testHTTP.Get(c.base() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	metrics, err := io.ReadAll(hr.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(metrics), "\nrouter_dump_patches 16\n") {
		t.Errorf("/metrics does not count 16 dump patches:\n%s", metrics)
	}
}

// TestShardRestartRenumbers: a shard restarted behind the same URL
// numbers its states from the start again, in a new epoch, so the
// number a routed delta commits there can be below the number of the
// router's dump from the old process. Only the epoch says that dump
// is stale: the gather after the delta must equal a monolith over the
// restarted shard's sources.
func TestShardRestartRenumbers(t *testing.T) {
	c := newTestCluster(t, 2026, 6, 8, 5, twoShardAssign(), nil, RouterConfig{})
	gather := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`,
		Vars: []string{"Root", "P", "Org", "T", "N"}, NoCache: true}
	if _, status := routerQuery(t, c.base(), gather); status != http.StatusOK {
		t.Fatalf("first gather: status %d", status)
	}
	route := func(label, id string) DeltaResponse {
		t.Helper()
		d := serve.DeltaRequest{Source: "NCMIR", Adds: []string{fmt.Sprintf(`src_obj('NCMIR', %s, protein)`, id)}}
		var dr DeltaResponse
		if status := postJSON(t, testHTTP, c.base()+"/v1/delta", d, &dr, nil); status != http.StatusOK {
			t.Fatalf("%s: status %d", label, status)
		}
		return dr
	}
	// Move the old process's NCMIR past the numbers a fresh boot starts
	// at; the router patches its dump along.
	for i := 0; i < 4; i++ {
		route("delta before the restart", fmt.Sprintf("old_%d", i))
	}
	held, fresh := c.router.facts.get("shard1")
	if !fresh || len(held) != 1 {
		t.Fatalf("router holds %d dumps of shard1 (fresh %v)", len(held), fresh)
	}

	// Restart shard1 over NCMIR data of another seed, read once as a
	// serving shard would have been.
	other := sec5Wrappers(t, 7, 6, 8, 5)
	c.shards[1].boot(t, []wrapper.Wrapper{other["NCMIR"]})
	if _, err := c.shards[1].med.Materialize(); err != nil {
		t.Fatal(err)
	}
	dr := route("delta after the restart", "new_0")
	if dr.Full || dr.To > held[0].Stamp {
		t.Fatalf("premise: the restarted shard numbers the delta %d (full %v), the router's dump is at %d",
			dr.To, dr.Full, held[0].Stamp)
	}

	ref := mediator.New(sources.NeuroDM(), nil)
	old := sec5Wrappers(t, 2026, 6, 8, 5)
	for _, w := range []wrapper.Wrapper{old["SYNAPSE"], old["SENSELAB"], sec5Wrappers(t, 7, 6, 8, 5)["NCMIR"]} {
		if err := ref.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	applyReferenceDelta(t, ref, serve.DeltaRequest{Source: "NCMIR", Adds: []string{`src_obj('NCMIR', new_0, protein)`}})
	resp, status := routerQuery(t, c.base(), gather)
	if status != http.StatusOK {
		t.Fatalf("gather after the restart: status %d", status)
	}
	checkEqual(t, "gather after the restart", resp, ref, gather.Query, gather.Vars)
	checkReplica(t, "after the restart", c.router)
}

// TestRoutedSyncRebuildReships: a /v1/sync through the router that
// makes a shard rebuild a source (its semantic rules changed, which no
// move can express) is numbered like a move, so the router's dump of
// that source goes stale and the next gather re-ships it: the answer
// follows the rebuilt source and equals the monolith's.
func TestRoutedSyncRebuildReships(t *testing.T) {
	c := newTestCluster(t, 2026, 6, 8, 5, twoShardAssign(), nil, RouterConfig{})
	ref := newReference(t, 2026, 6, 8, 5, nil)
	gather := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`,
		Vars: []string{"Root", "P", "Org", "T", "N"}, NoCache: true}
	if _, status := routerQuery(t, c.base(), gather); status != http.StatusOK {
		t.Fatalf("first gather: status %d", status)
	}
	before := refRowSet(t, ref, gather.Query, gather.Vars)

	// Copy every NCMIR object under a new name and add a semantic rule,
	// in the shard's wrapper and in the reference's alike.
	rules := parser.MustParseRules(`ncmir_object(O) :- src_obj('NCMIR', O, C).`)
	mutate := func(m *mediator.Mediator) {
		s, ok := m.Source("NCMIR")
		if !ok {
			t.Fatal("NCMIR not registered")
		}
		s.W.(*wrapper.InMemory).Mutate(func(mod *gcm.Model) {
			for _, o := range slices.Clone(mod.Objects) {
				o.ID = term.Atom(o.ID.String() + "_copy")
				mod.AddObject(o)
			}
			mod.Rules = append(mod.Rules, rules...)
		})
	}
	mutate(c.shards[1].med)
	mutate(ref)
	var out struct {
		Refreshed []*DeltaResponse `json:"refreshed"`
	}
	if status := postJSON(t, testHTTP, c.base()+"/v1/sync", struct{}{}, &out, nil); status != http.StatusOK {
		t.Fatalf("sync: status %d", status)
	}
	i := slices.IndexFunc(out.Refreshed, func(r *DeltaResponse) bool { return r.Source == "NCMIR" })
	if i < 0 || !out.Refreshed[i].Full || out.Refreshed[i].Epoch == 0 {
		t.Fatalf("premise: the sync rebuilds NCMIR under a numbered report: %+v", out.Refreshed)
	}
	if _, err := ref.SyncSources(); err != nil {
		t.Fatal(err)
	}
	if slices.Equal(before, refRowSet(t, ref, gather.Query, gather.Vars)) {
		t.Fatal("premise: the rebuilt NCMIR does not move the gather's answer")
	}
	ctr := c.router.Counters()
	fetches := ctr.Get("router.facts_fetches")
	resp, status := routerQuery(t, c.base(), gather)
	if status != http.StatusOK {
		t.Fatalf("gather after the sync: status %d", status)
	}
	checkEqual(t, "gather after the sync", resp, ref, gather.Query, gather.Vars)
	if n := ctr.Get("router.facts_fetches") - fetches; n != 1 {
		t.Errorf("%d re-ships after the rebuild, want 1 (the rebuilt shard's)", n)
	}
	checkReplica(t, "after the sync", c.router)
}

// TestDegradedGatherCostsAHealthyOne: with a shard down from the start,
// a cross-shard join reads the replica moved once to the shard that
// answers, as on a healthy cluster, and allocates at most twice what a
// healthy gather does a request. Built per request, the same partial
// gather allocated about 2 MB in 17.7k allocations, against a healthy
// one's 125 KB in 86. Not parallel: it reads the process's allocation
// counter.
func TestDegradedGatherCostsAHealthyOne(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation profile; the race detector instruments every allocation")
	}
	req, err := json.Marshal(serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C), src_obj('NCMIR', P, D)`, NoCache: true})
	if err != nil {
		t.Fatal(err)
	}
	perRequest := func(down bool) (kb, allocs float64) {
		c := newTestCluster(t, 2026, 20, 40, 12, twoShardAssign(), nil, RouterConfig{})
		c.shards[1].down.Store(down)
		h := c.router.Handler()
		run := func() *httptest.ResponseRecorder {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(req)))
			return rec
		}
		for i := 0; i < 2; i++ {
			rec := run()
			var resp QueryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || rec.Code != http.StatusOK || resp.Partial != down {
				t.Fatalf("down=%v: status %d, partial %v, %v", down, rec.Code, resp.Partial, err)
			}
		}
		const n = 50
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			run()
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / n / 1024, float64(after.Mallocs-before.Mallocs) / n
	}
	healthyKB, healthyA := perRequest(false)
	degradedKB, degradedA := perRequest(true)
	t.Logf("a gather request: healthy %.1f KB in %.0f allocations, partial %.1f KB in %.0f", healthyKB, healthyA, degradedKB, degradedA)
	if degradedKB > 2*healthyKB || degradedA > 2*healthyA {
		t.Errorf("a partial gather allocates %.1f KB in %.0f allocations, over twice a healthy one's %.1f KB in %.0f",
			degradedKB, degradedA, healthyKB, healthyA)
	}
}
