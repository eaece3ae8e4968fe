package cluster

// In-process cluster harness: N shard medd services (real serve.Server
// instances over partitioned sources, each behind an httptest listener
// with an injectable outage switch) fronted by a real Router. The
// reference for every differential check is a single mediator holding
// all sources, built from identically seeded wrappers.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"modelmed/internal/mediator"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

type testShard struct {
	id      string
	med     *mediator.Mediator
	srv     *serve.Server
	hs      *httptest.Server
	handler atomic.Pointer[http.Handler]
	down    atomic.Bool
	slowMs  atomic.Int64
}

// newTestShard boots one shard medd over the given wrappers. While
// down is set the shard answers 503 to everything — the transport
// stays up, which exercises the router's 5xx-as-outage handling and
// allows recovery.
func newTestShard(t testing.TB, id string, ws []wrapper.Wrapper) *testShard {
	t.Helper()
	sh := &testShard{id: id}
	sh.boot(t, ws)
	sh.hs = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := sh.slowMs.Load(); d > 0 {
			time.Sleep(time.Duration(d) * time.Millisecond)
		}
		if sh.down.Load() {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"injected outage"}`)
			return
		}
		(*sh.handler.Load()).ServeHTTP(w, r)
	}))
	t.Cleanup(sh.hs.Close)
	return sh
}

// boot starts the shard's medd over ws, replacing the one serving, as
// a restarted process behind the same URL would.
func (sh *testShard) boot(t testing.TB, ws []wrapper.Wrapper) {
	t.Helper()
	med := mediator.New(sources.NeuroDM(), nil)
	for _, w := range ws {
		if err := med.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	sh.med, sh.srv = med, serve.New(med, serve.Config{ShardID: sh.id})
	h := sh.srv.Handler()
	sh.handler.Store(&h)
}

type testCluster struct {
	router *Router
	hs     *httptest.Server
	shards []*testShard
}

func (c *testCluster) base() string { return c.hs.URL }

// sec5Wrappers builds the Section 5 federation wrappers with a fixed
// seed. Each call returns independent but identical wrappers, so a
// partitioned cluster and a monolithic reference see the same data.
func sec5Wrappers(t testing.TB, seed int64, nSyn, nNcm, nSl int) map[string]wrapper.Wrapper {
	t.Helper()
	ws, err := sources.Wrappers(seed, nSyn, nNcm, nSl)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]wrapper.Wrapper{}
	for _, w := range ws {
		out[w.Name()] = w
	}
	return out
}

// newReference builds the monolithic single-mediator reference over
// identically seeded wrappers.
func newReference(t testing.TB, seed int64, nSyn, nNcm, nSl int, extra []wrapper.Wrapper, only ...string) *mediator.Mediator {
	t.Helper()
	med := mediator.New(sources.NeuroDM(), nil)
	keep := map[string]bool{}
	for _, n := range only {
		keep[n] = true
	}
	for n, w := range sec5Wrappers(t, seed, nSyn, nNcm, nSl) {
		if len(keep) > 0 && !keep[n] {
			continue
		}
		if err := med.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range extra {
		if err := med.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	return med
}

// newTestCluster partitions the named sources across len(assign)
// shards and fronts them with a router. assign maps shard index ->
// source names; extra wrappers (beyond the Section 5 three) are looked
// up in extras by name.
func newTestCluster(t testing.TB, seed int64, nSyn, nNcm, nSl int, assign [][]string, extras map[string]wrapper.Wrapper, cfg RouterConfig) *testCluster {
	t.Helper()
	byName := sec5Wrappers(t, seed, nSyn, nNcm, nSl)
	for n, w := range extras {
		byName[n] = w
	}
	c := &testCluster{}
	var shardCfgs []ShardConfig
	for i, names := range assign {
		var ws []wrapper.Wrapper
		for _, n := range names {
			w, ok := byName[n]
			if !ok {
				t.Fatalf("unknown source %s in shard assignment", n)
			}
			ws = append(ws, w)
		}
		sh := newTestShard(t, fmt.Sprintf("shard%d", i), ws)
		c.shards = append(c.shards, sh)
		shardCfgs = append(shardCfgs, ShardConfig{ID: sh.id, URL: sh.hs.URL})
	}
	rep := mediator.New(sources.NeuroDM(), nil)
	if err := rep.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	cfg.Shards = shardCfgs
	cfg.Replica = rep
	if cfg.Breaker.Cooldown == 0 {
		cfg.Breaker.Cooldown = 50 * time.Millisecond
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.router = rt
	c.hs = httptest.NewServer(rt.Handler())
	t.Cleanup(c.hs.Close)
	return c
}

// testHTTP is the one client the package's tests talk HTTP with. Its
// timeout turns a router that never answers into a failed request
// instead of a test binary that hangs until go test's own deadline.
var testHTTP = &http.Client{Timeout: 30 * time.Second}

// postJSON posts a JSON body and decodes the JSON reply into out.
func postJSON(t testing.TB, client *http.Client, url string, in any, out any, headers map[string]string) int {
	t.Helper()
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

func routerQuery(t testing.TB, base string, req serve.QueryRequest) (QueryResponse, int) {
	t.Helper()
	var out QueryResponse
	status := postJSON(t, testHTTP, base+"/v1/query", req, &out, nil)
	return out, status
}

// rowSet renders rows as a sorted, deduped string set for set-equality
// comparison.
func rowSet(rows [][]string) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		k := strings.Join(r, "\x1f")
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// refRowSet evaluates q on the reference the way a shard answers a
// /v1/query: full engine evaluation over the materialized,
// delta-patched store.
func refRowSet(t testing.TB, ref *mediator.Mediator, q string, vars []string) []string {
	t.Helper()
	ans, err := ref.Query(q, vars...)
	if err != nil {
		t.Fatalf("reference %q: %v", q, err)
	}
	rows := make([][]string, len(ans.Rows))
	for i, row := range ans.Rows {
		cells := make([]string, len(row))
		for j, tm := range row {
			cells[j] = tm.String()
		}
		rows[i] = cells
	}
	return rowSet(rows)
}

const twoShardAssignString = "shard0={SYNAPSE,SENSELAB} shard1={NCMIR}"

func twoShardAssign() [][]string {
	return [][]string{{"SYNAPSE", "SENSELAB"}, {"NCMIR"}}
}

func TestRouterModes(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})
	ref := newReference(t, 2026, 20, 30, 15, nil)

	cases := []struct {
		name string
		req  serve.QueryRequest
		mode string
	}{
		{"replicated", serve.QueryRequest{Query: `dm_isa_star(C, neuron)`, Vars: []string{"C"}}, "replicated"},
		{"proxy", serve.QueryRequest{
			Query: `src_obj('SENSELAB', N, neurotransmission), src_val('SENSELAB', N, organism, "rat")`,
			Vars:  []string{"N"}}, "proxy"},
		{"scatter", serve.QueryRequest{Query: `anchor(S, O, C), dm_isa_star(C, dendrite)`,
			Vars: []string{"S", "O", "C"}}, "scatter"},
		{"gather", serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`,
			Vars: []string{"Root", "P", "Org", "T", "N"}}, "gather"},
		// SYNAPSE and NCMIR live on different shards: restricted gather.
		{"cross-shard sources", serve.QueryRequest{
			Query: `src_obj('SYNAPSE', O, C), src_obj('NCMIR', P, D)`,
			Vars:  []string{"O", "P"}}, "gather"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, status := routerQuery(t, c.base(), tc.req)
			if status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
			if resp.Mode != tc.mode {
				t.Errorf("mode = %s, want %s", resp.Mode, tc.mode)
			}
			if resp.Partial {
				t.Errorf("unexpected partial answer")
			}
			got := rowSet(resp.Rows)
			want := refRowSet(t, ref, tc.req.Query, tc.req.Vars)
			if len(got) == 0 {
				t.Fatalf("empty answer (reference has %d rows)", len(want))
			}
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("answer mismatch: %d rows vs reference %d", len(got), len(want))
			}
		})
	}
}

// TestReplicatedQueryReadsThePublishedValue: a replicated query reads
// the value the replica mediator publishes instead of building the
// static program per query (about 1.9 MB a query), and an unknown
// predicate is still the client's error.
func TestReplicatedQueryReadsThePublishedValue(t *testing.T) {
	c := newTestCluster(t, 2026, 6, 8, 5, twoShardAssign(), nil, RouterConfig{})
	h := c.router.Handler()
	serveQuery := func(q string) *httptest.ResponseRecorder {
		body, err := json.Marshal(serve.QueryRequest{Query: q, Vars: []string{"C"}, NoCache: true})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
		return rec
	}
	const q = `dm_isa_star(C, neuron)`
	if rec := serveQuery(q); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"mode":"replicated"`) {
		t.Fatalf("replicated query: status %d: %s", rec.Code, rec.Body)
	}
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		serveQuery(q)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > 100<<10 {
		t.Errorf("a replicated query allocates %d KB, want <= 100 KB", per>>10)
	}
	if rec := serveQuery(`no_such_pred(C)`); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown predicate: status %d, want 400", rec.Code)
	}
}

// TestRouterCacheAndDeltaInvalidation: a proxy relays its shard's
// cached flag, and a delta routed to a source's shard invalidates that
// shard's cached answers over the source and no other shard's. The
// shards' caches, validated by the versions each publishes, are the
// cluster's only answer caches.
func TestRouterCacheAndDeltaInvalidation(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})

	slQuery := serve.QueryRequest{Query: `src_obj('SENSELAB', N, neurotransmission)`, Vars: []string{"N"}}
	nmQuery := serve.QueryRequest{Query: `src_obj('NCMIR', O, protein)`, Vars: []string{"O"}}
	for _, q := range []serve.QueryRequest{slQuery, nmQuery} {
		if resp, status := routerQuery(t, c.base(), q); status != 200 || resp.Cached {
			t.Fatalf("warmup: status %d cached %v", status, resp.Cached)
		}
	}
	if resp, _ := routerQuery(t, c.base(), slQuery); !resp.Cached {
		t.Fatal("second read should be answered by shard0's cache")
	}

	// Delta to SENSELAB: routed to shard0, it invalidates only the
	// SENSELAB answer.
	var dr DeltaResponse
	status := postJSON(t, testHTTP, c.base()+"/v1/delta", serve.DeltaRequest{
		Source: "SENSELAB",
		Adds:   []string{`src_obj('SENSELAB', nt_new_1, neurotransmission)`},
	}, &dr, nil)
	if status != http.StatusOK {
		t.Fatalf("delta status %d", status)
	}
	if dr.Shard != "shard0" {
		t.Errorf("delta routed to %s, want shard0", dr.Shard)
	}
	if dr.FactsAdded != 1 {
		t.Errorf("facts added = %d, want 1", dr.FactsAdded)
	}
	if resp, _ := routerQuery(t, c.base(), nmQuery); !resp.Cached {
		t.Error("NCMIR answer should have stayed cached at shard1 across a SENSELAB delta")
	}
	// The re-computed SENSELAB answer must include the delta.
	resp, _ := routerQuery(t, c.base(), slQuery)
	if resp.Cached {
		t.Fatal("SENSELAB answer should have been invalidated at shard0")
	}
	found := false
	for _, row := range resp.Rows {
		if len(row) == 1 && row[0] == "nt_new_1" {
			found = true
		}
	}
	if !found {
		t.Error("post-delta answer misses the added fact")
	}

	// A delta for a source no shard owns is a client error.
	status = postJSON(t, testHTTP, c.base()+"/v1/delta",
		serve.DeltaRequest{Source: "NOPE", Adds: []string{`src_obj('NOPE', x, y)`}}, &map[string]any{}, nil)
	if status != http.StatusBadRequest {
		t.Errorf("unowned-source delta: status %d, want 400", status)
	}
}

// TestRouterSeesShardLocalMoves: a move made at a shard's mediator
// directly, past the router, shows at once in the router's proxy and
// scatter answers, cached or not: the shards' caches validate by the
// versions their mediators publish, and the router keeps no answers. A
// gather still reads the router's dump of the moved source, which
// nothing told the router is stale; the test logs that gap and does not
// assert it.
func TestRouterSeesShardLocalMoves(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})
	ref := newReference(t, 2026, 20, 30, 15, nil)
	proxy := serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C)`, Vars: []string{"O", "C"}}
	scatter := serve.QueryRequest{Query: `anchor(S, O, C), dm_isa_star(C, dendrite)`, Vars: []string{"S", "O", "C"}}
	gather := serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C), src_obj('NCMIR', P, D)`, Vars: []string{"O", "C", "P", "D"}}
	for _, req := range []serve.QueryRequest{proxy, scatter, gather} {
		for i := 0; i < 2; i++ {
			if _, status := routerQuery(t, c.base(), req); status != http.StatusOK {
				t.Fatalf("warm %s: status %d", req.Query, status)
			}
		}
	}
	move := serve.DeltaRequest{Source: "SYNAPSE", Adds: []string{
		`src_obj('SYNAPSE', local_1, spine_measurement)`, `anchor('SYNAPSE', local_1, dendrite)`}}
	applyReferenceDelta(t, c.shards[0].med, move)
	applyReferenceDelta(t, ref, move)
	for _, req := range []serve.QueryRequest{proxy, scatter} {
		for _, noCache := range []bool{false, true} {
			req.NoCache = noCache
			resp, status := routerQuery(t, c.base(), req)
			if status != http.StatusOK {
				t.Fatalf("%s no_cache=%v: status %d", req.Query, noCache, status)
			}
			checkEqual(t, fmt.Sprintf("%s after a shard-local move, no_cache=%v", resp.Mode, noCache), resp, ref, req.Query, req.Vars)
		}
	}
	gather.NoCache = true
	resp, status := routerQuery(t, c.base(), gather)
	if status != http.StatusOK {
		t.Fatalf("gather: status %d", status)
	}
	t.Logf("gather after a shard-local move: %d rows, reference %d (the router's dump of SYNAPSE is stale)",
		len(rowSet(resp.Rows)), len(refRowSet(t, ref, gather.Query, gather.Vars)))
}

// TestPlannedFieldSeesPushedDelta: the router proxies a single-shard
// query to its owner, which answers from its materialized base. A
// client that still sends the retired "planned": true field gets that
// answer too, so a delta pushed through the router shows in it.
func TestPlannedFieldSeesPushedDelta(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})
	planned := map[string]any{"query": "src_obj('SYNAPSE', O, C)", "vars": []string{"O", "C"}, "planned": true, "no_cache": true}
	query := func() QueryResponse {
		t.Helper()
		var resp QueryResponse
		if status := postJSON(t, testHTTP, c.base()+"/v1/query", planned, &resp, nil); status != http.StatusOK {
			t.Fatalf("query status %d", status)
		}
		if resp.Mode != "proxy" {
			t.Fatalf("mode = %s, want proxy", resp.Mode)
		}
		return resp
	}
	before := query()
	if status := postJSON(t, testHTTP, c.base()+"/v1/delta", serve.DeltaRequest{
		Source: "SYNAPSE", Adds: []string{`src_obj('SYNAPSE', probe_obj, spine_measurement)`},
	}, &DeltaResponse{}, nil); status != http.StatusOK {
		t.Fatalf("delta status %d", status)
	}
	after := query()
	want := append(rowSet(before.Rows), "probe_obj\x1fspine_measurement")
	sort.Strings(want)
	if got := rowSet(after.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("after the delta: %d rows, want the %d before plus probe_obj", len(got), len(before.Rows))
	}
}

// TestRouterScatterCacheInvalidation: a repeated scatter is answered
// by every shard's cache, and the router flags the union it writes
// uncached. A delta to NCMIR invalidates shard1's answer, whose
// scatter entry reads every source of the shard, and leaves shard0's,
// and the next scatter holds the pushed row.
func TestRouterScatterCacheInvalidation(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})
	scatter := serve.QueryRequest{Query: `anchor(S, O, C)`, Vars: []string{"S", "O", "C"}}
	hits := func() [2]int64 {
		return [2]int64{c.shards[0].srv.Counters().Get("serve.cache_hits"), c.shards[1].srv.Counters().Get("serve.cache_hits")}
	}
	if _, status := routerQuery(t, c.base(), scatter); status != 200 {
		t.Fatal("warmup failed")
	}
	before := hits()
	if resp, _ := routerQuery(t, c.base(), scatter); resp.Cached {
		t.Error("the router flagged a scatter union cached")
	}
	if after := hits(); after[0] != before[0]+1 || after[1] != before[1]+1 {
		t.Fatalf("repeated scatter: shard cache hits %v -> %v, want one more on each shard", before, after)
	}
	var dr DeltaResponse
	if status := postJSON(t, testHTTP, c.base()+"/v1/delta", serve.DeltaRequest{
		Source: "NCMIR", Adds: []string{`src_obj('NCMIR', pr_new_1, protein)`, `anchor('NCMIR', pr_new_1, dendrite)`},
	}, &dr, nil); status != 200 {
		t.Fatalf("delta status %d", status)
	}
	if dr.Shard != "shard1" || dr.FactsAdded != 1 || dr.AnchorsAdded != 1 {
		t.Errorf("delta: shard %s, %d facts and %d anchors added, want shard1, 1 and 1", dr.Shard, dr.FactsAdded, dr.AnchorsAdded)
	}
	before = hits()
	resp, _ := routerQuery(t, c.base(), scatter)
	if after := hits(); after[0] != before[0]+1 || after[1] != before[1] {
		t.Errorf("scatter after an NCMIR delta: shard cache hits %v -> %v, want a hit on shard0 only", before, after)
	}
	if !slices.Contains(rowSet(resp.Rows), "'NCMIR'\x1fpr_new_1\x1fdendrite") {
		t.Error("scatter after the delta misses the pushed anchor")
	}
}

func TestRouterRateLimit(t *testing.T) {
	c := newTestCluster(t, 2026, 5, 5, 5, twoShardAssign(), nil, RouterConfig{
		RateLimits: map[string]float64{"probe": 2},
	})
	req := serve.QueryRequest{Query: `dm_isa_star(C, neuron)`, Vars: []string{"C"}}
	hdr := map[string]string{"X-API-Key": "probe"}
	var got429 bool
	for i := 0; i < 5; i++ {
		status := postJSON(t, testHTTP, c.base()+"/v1/query", req, nil, hdr)
		if status == http.StatusTooManyRequests {
			got429 = true
		}
	}
	if !got429 {
		t.Fatal("burst over the key's rate never saw 429")
	}
	// Unlisted keys are unlimited when no default bucket exists.
	for i := 0; i < 5; i++ {
		if status := postJSON(t, testHTTP, c.base()+"/v1/query", req, nil, nil); status != 200 {
			t.Fatalf("unlisted key: status %d", status)
		}
	}
	// Health stays reachable regardless.
	resp, err := testHTTP.Get(c.base() + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestRouterSyncAndHealthz(t *testing.T) {
	c := newTestCluster(t, 2026, 5, 5, 5, twoShardAssign(), nil, RouterConfig{})
	var health struct {
		Status  string        `json:"status"`
		Sources []string      `json:"sources"`
		Shards  []ShardReport `json:"shards"`
	}
	resp, err := testHTTP.Get(c.base() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || len(health.Shards) != 2 {
		t.Fatalf("healthz: %+v", health)
	}
	if strings.Join(health.Sources, ",") != "NCMIR,SENSELAB,SYNAPSE" {
		t.Fatalf("sources: %v", health.Sources)
	}

	// Query, then sync: reports fan in from both shards and the router
	// patches its dumps by each report.
	if _, status := routerQuery(t, c.base(), serve.QueryRequest{Query: `anchor(S, O, C)`}); status != 200 {
		t.Fatal("warmup failed")
	}
	var syncOut struct {
		Refreshed []*DeltaResponse `json:"refreshed"`
		Shards    []ShardReport    `json:"shards"`
	}
	if status := postJSON(t, testHTTP, c.base()+"/v1/sync", struct{}{}, &syncOut, nil); status != 200 {
		t.Fatalf("sync status %d", status)
	}
	if len(syncOut.Shards) != 2 {
		t.Fatalf("sync shard reports: %+v", syncOut.Shards)
	}

	// Metrics endpoint renders the counter set.
	mresp, err := testHTTP.Get(c.base() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "router_queries") {
		t.Fatalf("metrics missing router_queries:\n%s", buf.String())
	}
}
