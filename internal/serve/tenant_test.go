package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/parser"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

// newTenantFixture is newServeFixture with the engine options exposed,
// so tests can arm the gas meter.
func newTenantFixture(t *testing.T, cfg Config, eng datalog.Options) *Server {
	t.Helper()
	m := mediator.New(sources.NeuroDM(), &mediator.Options{Engine: eng})
	for i, name := range []string{"alpha", "beta"} {
		model := sources.MustSyntheticSource(name, int64(40+i), 6, serveConcepts)
		w, err := wrapper.NewInMemory(model)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineView(serveViews); err != nil {
		t.Fatal(err)
	}
	return New(m, cfg)
}

// TestDRRWeightedOrder pins the grant order of the deficit round-robin
// scheduler: with tenant a at weight 2 and b at weight 1, six waiters
// each, the freed slot rotates a a b until a drains, then b finishes.
func TestDRRWeightedOrder(t *testing.T) {
	a := newAdmission(1, 16, map[string]int{"a": 2})
	ctx := context.Background()

	// Occupy the only slot so every subsequent acquire queues.
	if err := a.acquire(ctx, "a"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	enqueue := func(tenant string, wantQueued int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := a.acquire(ctx, tenant); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			order = append(order, tenant)
			mu.Unlock()
			a.release()
		}()
		// Serialize enqueues so per-tenant FIFO order (and ring order:
		// a joined first) is deterministic.
		deadline := time.Now().Add(5 * time.Second)
		for {
			if _, queued := a.stats(); queued == wantQueued {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d for %s never queued", wantQueued, tenant)
			}
			time.Sleep(time.Millisecond)
		}
	}
	n := 0
	for i := 0; i < 6; i++ {
		n++
		enqueue("a", n)
	}
	for i := 0; i < 6; i++ {
		n++
		enqueue("b", n)
	}

	a.release() // hand the held slot to the scheduler
	wg.Wait()

	want := []string{"a", "a", "b", "a", "a", "b", "a", "a", "b", "b", "b", "b"}
	if got := strings.Join(order, " "); got != strings.Join(want, " ") {
		t.Fatalf("grant order = %s, want %s", got, strings.Join(want, " "))
	}
	if inflight, queued := a.stats(); inflight != 0 || queued != 0 {
		t.Fatalf("after drain: inflight=%d queued=%d, want 0/0", inflight, queued)
	}
}

// TestSingleFlightLeaderCancelRecovery is the regression test for the
// leader-cancellation bug: when the flight leader dies of its own
// context, a follower whose context is still live must recompute and
// succeed rather than inherit the leader's cancellation (or spin on
// the dead flight).
func TestSingleFlightLeaderCancelRecovery(t *testing.T) {
	c := newAnswerCache(8, fixedStamps, nil)
	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderIn := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, err := c.do(leaderCtx, defaultTenant, "k", nil, false, func() (*mediator.Answer, error) {
			close(leaderIn)
			<-leaderCtx.Done()
			return nil, leaderCtx.Err()
		})
		if err == nil {
			t.Error("leader compute returned its ctx error but do() reported nil")
		}
	}()
	<-leaderIn

	// The follower joins while the leader is computing, then the leader
	// is cancelled out from under it.
	followerDone := make(chan struct{})
	var fVal *mediator.Answer
	var fErr error
	go func() {
		defer close(followerDone)
		fVal, _, fErr = c.do(context.Background(), defaultTenant, "k", nil, false, computeOK(42))
	}()
	time.Sleep(20 * time.Millisecond) // let the follower reach the flight
	cancelLeader()

	select {
	case <-followerDone:
	case <-time.After(5 * time.Second):
		t.Fatal("follower never completed after leader cancellation (livelock on dead flight)")
	}
	if fErr != nil {
		t.Fatalf("follower err = %v, want nil (its own context was live)", fErr)
	}
	if fVal == nil || fVal.Vars[0] != "42" {
		t.Fatalf("follower got %+v, want its own computed value 42", fVal)
	}
	wg.Wait()

	// The recomputed value is cached for the next caller.
	if _, ok := c.get(defaultTenant, "k"); !ok {
		t.Fatal("follower's successful compute was not cached")
	}
}

// TestTenantCachePartitionIsolation: one tenant's cached answers and
// in-progress flights are invisible to another tenant's keys.
func TestTenantCachePartitionIsolation(t *testing.T) {
	c := newAnswerCache(8, fixedStamps, nil)
	ctx := context.Background()
	if _, out, err := c.do(ctx, "gold", "k", nil, false, computeOK(1)); err != nil || out != outcomeComputed {
		t.Fatalf("gold compute: out=%d err=%v", out, err)
	}
	if _, ok := c.get("free", "k"); ok {
		t.Fatal("tenant free sees tenant gold's cache entry")
	}
	if _, out, err := c.do(ctx, "free", "k", nil, false, computeOK(2)); err != nil || out != outcomeComputed {
		t.Fatalf("free compute: out=%d err=%v (should not hit gold's entry)", out, err)
	}
	v, ok := c.get("free", "k")
	if !ok || v.Vars[0] != "2" {
		t.Fatalf("free entry = %+v ok=%v, want its own value 2", v, ok)
	}
	if g, _ := c.get("gold", "k"); g.Vars[0] != "1" {
		t.Fatalf("gold entry = %+v, want 1 untouched", g)
	}
}

// crossProduct builds an n-way unconstrained join over the base
// relation — the canonical runaway query.
func crossProduct(n int) string {
	var b strings.Builder
	for i := 1; i <= n; i++ {
		if i > 1 {
			b.WriteString(", ")
		}
		b.WriteString("src_obj(S")
		b.WriteString(strings.Repeat("I", i))
		b.WriteString(", O")
		b.WriteString(strings.Repeat("I", i))
		b.WriteString(", C")
		b.WriteString(strings.Repeat("I", i))
		b.WriteString(")")
	}
	return b.String()
}

// TestTimeoutFreesAdmissionSlot is the regression test for the
// runaway-query bug: a query that blows its deadline must return 504
// AND give its admission slot back promptly — the evaluation stops
// with the context instead of squatting on the slot until fixpoint.
func TestTimeoutFreesAdmissionSlot(t *testing.T) {
	srv := newTenantFixture(t, Config{MaxInFlight: 1, MaxQueue: 8}, datalog.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// ~12^6 join solutions: seconds of compiled evaluation, cut off at
	// 150ms by the per-request deadline. (Compiled, 12^5 can finish
	// enumerating inside the deadline.)
	code, _ := doQuery(t, ts, QueryRequest{
		Query: crossProduct(6), NoCache: true, TimeoutMs: 150,
	})
	if code != http.StatusGatewayTimeout {
		t.Fatalf("runaway query: status %d, want 504", code)
	}

	// The single slot must already be free: a cheap query completes
	// fast, not after the runaway's natural multi-second fixpoint.
	start := time.Now()
	code, resp := doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}})
	if code != http.StatusOK {
		t.Fatalf("follow-up query: status %d, want 200", code)
	}
	if resp.Count == 0 {
		t.Fatal("follow-up query returned no rows")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("follow-up took %v: the timed-out query is still holding the slot", d)
	}
	if got := srv.Counters().Get("serve.timeouts"); got != 1 {
		t.Fatalf("serve.timeouts = %d, want 1", got)
	}
}

// TestBudgetExceededReturns422: a deadline-free runaway stopped by the
// gas meter maps to 422 with its own metric, and the engine keeps
// serving afterwards.
func TestBudgetExceededReturns422(t *testing.T) {
	srv := newTenantFixture(t, Config{}, datalog.Options{
		Limits: datalog.Limits{MaxDerivedFacts: 5000, MaxRounds: 1000},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the materialization (well under the budget) so the runaway
	// measures only query gas.
	if code, _ := doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}}); code != http.StatusOK {
		t.Fatalf("warmup status %d", code)
	}

	// 12^4 > 20k join solutions against a 5k budget, no deadline.
	resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Query: crossProduct(4), NoCache: true})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("runaway status %d, want 422\n%s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("budget")) {
		t.Fatalf("422 body does not mention the budget: %s", body)
	}
	if got := srv.Counters().Get("serve.budget_exceeded"); got != 1 {
		t.Fatalf("serve.budget_exceeded = %d, want 1", got)
	}
	if got := srv.Counters().Get("serve.tenant." + defaultTenant + ".budget_exceeded"); got != 1 {
		t.Fatalf("tenant budget counter = %d, want 1", got)
	}

	// The engine is intact: the same server answers a normal query.
	code, out := doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}, NoCache: true})
	if code != http.StatusOK || out.Count == 0 {
		t.Fatalf("post-budget query: status %d count %v", code, out)
	}
}

// TestEarlyBadRequestLogged is the regression test for the silent
// early-return paths: a request rejected before admission (bad JSON)
// must still produce a request log line.
func TestEarlyBadRequestLogged(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex // log.Logger serializes writes, but the test reads
	srv := newTenantFixture(t, Config{Log: log.New(syncWriter{&mu, &buf}, "", 0)}, datalog.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	mu.Lock()
	logged := buf.String()
	mu.Unlock()
	if !strings.Contains(logged, "status=400") {
		t.Fatalf("early 400 left no log line; log output:\n%s", logged)
	}
	if !strings.Contains(logged, "tenant="+defaultTenant) {
		t.Fatalf("400 log line carries no tenant; log output:\n%s", logged)
	}
}

type syncWriter struct {
	mu *sync.Mutex
	w  *bytes.Buffer
}

func (s syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// TestAbusiveTenantFairness is the chaos test: an abusive tenant
// flooding the gate at high concurrency with deadline-free runaway
// queries (stopped only by the gas meter) must not destroy the honest
// tenant's tail latency. The honest tenant counts the same 4-way cross
// product the abuser enumerates: the count derives one fact, so it
// finishes under the budget, and its service time is at least one
// budget-kill, so slot-count fairness is also time fairness. Over ten
// runs on a two-CPU host the contended p99 measured 0.5-1.7x the
// uncontended one; this test enforces a loose 3x ceiling so it stays
// green on noisy CI machines.
func TestAbusiveTenantFairness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second load test")
	}
	const (
		honestKey = "honest"
		abuserKey = "abuser"
	)
	cfg := Config{
		MaxInFlight:    2,
		MaxQueue:       96,
		RequestTimeout: 10 * time.Second,
		TenantWeights:  map[string]int{honestKey: 3, abuserKey: 1},
	}
	// The budget admits the materialization and stops the enumerated
	// cross product (12^4 = 20,736 rows) halfway. It admits the honest
	// count over the same cross product with its first two objects
	// distinct and of one source: 12·5·12·12 = 8,640 inner solutions,
	// each charged as a row is.
	eng := datalog.Options{Limits: datalog.Limits{MaxDerivedFacts: 10000, MaxRounds: 1000}}
	honestReq := QueryRequest{Query: "N = count{OI; " + crossProduct(4) + ", SI = SII, OI != OII}", Vars: []string{"N"}, NoCache: true}
	abusiveReq := QueryRequest{Query: crossProduct(4), NoCache: true}
	runHonest := func(ts *httptest.Server) load.Stats {
		t.Helper()
		stats, err := load.Run(load.Config{
			BaseURL:     ts.URL,
			Requests:    []load.Request{{Query: honestReq.Query, Vars: honestReq.Vars, NoCache: true}},
			Concurrency: 8,
			Duration:    1500 * time.Millisecond,
			APIKey:      honestKey,
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.OK == 0 {
			t.Fatalf("honest tenant completed nothing: %s", stats.String())
		}
		return stats
	}
	// serviceTime is the median of five sequential requests.
	serviceTime := func(ts *httptest.Server, req QueryRequest, want int) time.Duration {
		t.Helper()
		var ds []time.Duration
		for i := 0; i < 5; i++ {
			start := time.Now()
			if code, _ := doQuery(t, ts, req); code != want {
				t.Fatalf("%s: status %d, want %d", req.Query, code, want)
			}
			ds = append(ds, time.Since(start))
		}
		slices.Sort(ds)
		return ds[2]
	}

	// Baseline: honest tenant alone.
	srv := newTenantFixture(t, cfg, eng)
	ts := httptest.NewServer(srv.Handler())
	honestSvc := serviceTime(ts, honestReq, http.StatusOK)
	killSvc := serviceTime(ts, abusiveReq, http.StatusUnprocessableEntity)
	t.Logf("service time: honest %v, abusive budget-kill %v", honestSvc, killSvc)
	if honestSvc < killSvc {
		t.Fatalf("honest service time %v is below one budget-kill %v: slot fairness would not be time fairness", honestSvc, killSvc)
	}
	baseline := runHonest(ts)
	ts.Close()

	// Contended: fresh identical server, honest run races an abusive
	// tenant at 8x its concurrency issuing uncached, deadline-free
	// cross-products that each burn their full gas budget.
	srv = newTenantFixture(t, cfg, eng)
	ts = httptest.NewServer(srv.Handler())
	defer ts.Close()
	doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}}) // warm materialization

	var wg sync.WaitGroup
	var contended, abusive load.Stats
	var abuseErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		abusive, abuseErr = load.Run(load.Config{
			BaseURL:     ts.URL,
			Requests:    []load.Request{{Query: abusiveReq.Query, NoCache: true}},
			Concurrency: 64,
			Duration:    1500 * time.Millisecond,
			APIKey:      abuserKey,
		})
	}()
	contended = runHonest(ts)
	wg.Wait()
	if abuseErr != nil {
		t.Fatal(abuseErr)
	}
	if abusive.Budget == 0 {
		t.Fatalf("no abusive request was budget-killed — the chaos load is not chaotic: %s", abusive.String())
	}

	ratio := contended.P99Ms / baseline.P99Ms
	t.Logf("honest p99: %.1fms alone, %.1fms contended (ratio %.2fx); abusive: %s",
		baseline.P99Ms, contended.P99Ms, ratio, abusive.String())
	if ratio > 3.0 {
		t.Fatalf("honest p99 degraded %.2fx under abuse (%.1fms -> %.1fms), want <= 3x",
			ratio, baseline.P99Ms, contended.P99Ms)
	}
}

// TestNewTextOrderedUnderAdmission: before a request is admitted its
// text is only parsed; ordering and compiling the body, which grow with
// the square of its length, wait for an admission slot. With the one
// slot held and no queue, a tenant sending a long body with a new text
// on every request is shed in a fraction of the time ordering one such
// body takes (the fastest of four, so a scheduling stall in one does not
// decide it), and once the slot is free the same kind of text is
// answered.
func TestNewTextOrderedUnderAdmission(t *testing.T) {
	srv := newTenantFixture(t, Config{MaxInFlight: 1, MaxQueue: -1}, datalog.Options{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// long is a new text of n repeats of one literal: parsing it is
	// linear, ordering it quadratic.
	long := func(i, n int) string {
		lit := fmt.Sprintf("src_obj('alpha', O, c%d)", i)
		return lit + strings.Repeat(", "+lit, n-1)
	}
	const lits = 1500
	body, _, err := parser.ParseQuery(long(0, lits))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := datalog.PrepareQuery(body, []string{"O"}); err != nil {
		t.Fatal(err)
	}
	prepare := time.Since(start)

	// Hold the slot with a runaway query until the client goes away.
	ctx, cancel := context.WithCancel(context.Background())
	held := make(chan struct{})
	go func() {
		defer close(held)
		b, _ := json.Marshal(QueryRequest{Query: crossProduct(6), NoCache: true, TimeoutMs: 30000})
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query", bytes.NewReader(b))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	// inflight waits until n requests hold a slot.
	inflight := func(n int) bool {
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			srv.adm.mu.Lock()
			got := srv.adm.inflight
			srv.adm.mu.Unlock()
			if got == n {
				return true
			}
		}
		return false
	}
	if !inflight(1) {
		cancel()
		t.Fatal("the runaway query never took the slot")
	}

	fastest := time.Hour
	for i := 1; i <= 4; i++ {
		start := time.Now()
		resp, _ := postJSON(t, ts, "/v1/query", QueryRequest{Query: long(i, lits), Vars: []string{"O"}, NoCache: true})
		fastest = min(fastest, time.Since(start))
		if resp.StatusCode != http.StatusServiceUnavailable {
			cancel()
			t.Fatalf("request %d with the slot held: status %d, want 503", i, resp.StatusCode)
		}
	}
	cancel()
	<-held
	if !inflight(0) {
		t.Fatal("the runaway query kept its slot after its client went away")
	}
	t.Logf("ordering and compiling one body: %v; fastest shed request: %v", prepare, fastest)
	if fastest > prepare/2 {
		t.Errorf("every shed request took %v or more, ordering one body %v: the bodies were ordered before admission", fastest, prepare)
	}

	code, resp := doQuery(t, ts, QueryRequest{Query: long(5, lits), Vars: []string{"O"}, NoCache: true})
	if code != http.StatusOK || resp.Count != 0 {
		t.Fatalf("long text with the slot free: status %d", code)
	}
}
