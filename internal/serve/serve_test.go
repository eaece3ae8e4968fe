package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/mediator"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

var serveConcepts = []string{"cerebellum", "purkinje_cell", "dendrite", "spine", "soma"}

const serveViews = `
	covered(C) :- anchor(S, O, C).
	site_count(C, N) :- N = count{O[C]; anchor(S, O, C)}.
`

// newServeFixture builds a mediator over two small synthetic sources
// (alpha, beta) plus a Server at the given config.
func newServeFixture(t *testing.T, cfg Config) (*Server, *mediator.Mediator, []*wrapper.InMemory) {
	t.Helper()
	var ws []*wrapper.InMemory
	m := mediator.New(sources.NeuroDM(), &mediator.Options{})
	for i, name := range []string{"alpha", "beta"} {
		model := sources.MustSyntheticSource(name, int64(40+i), 6, serveConcepts)
		w, err := wrapper.NewInMemory(model)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
		ws = append(ws, w)
	}
	if err := m.DefineView(serveViews); err != nil {
		t.Fatal(err)
	}
	return New(m, cfg), m, ws
}

func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func doQuery(t *testing.T, ts *httptest.Server, req QueryRequest) (int, *QueryResponse) {
	t.Helper()
	resp, body := postJSON(t, ts, "/v1/query", req)
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil
	}
	var out QueryResponse
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode query response: %v\n%s", err, body)
	}
	return resp.StatusCode, &out
}

func TestQueryEndpointAndCache(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}}
	code, first := doQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Count == 0 || len(first.Rows) != first.Count {
		t.Fatalf("first answer: count=%d rows=%d", first.Count, len(first.Rows))
	}
	if first.Cached {
		t.Fatal("first answer claims to be cached")
	}
	if got := first.Vars; len(got) != 2 || got[0] != "O" || got[1] != "C" {
		t.Fatalf("vars = %v", got)
	}

	_, second := doQuery(t, ts, req)
	if !second.Cached {
		t.Fatal("second identical query was not served from cache")
	}
	if second.Count != first.Count {
		t.Fatalf("cached count %d != fresh count %d", second.Count, first.Count)
	}

	// Textual variants normalize to the same key.
	_, variant := doQuery(t, ts, QueryRequest{
		Query: "  src_obj( 'alpha' ,O,  C )  ", Vars: []string{"O", "C"},
	})
	if !variant.Cached {
		t.Fatal("whitespace variant missed the cache; key is not normalized")
	}

	// no_cache bypasses.
	_, fresh := doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}, NoCache: true})
	if fresh.Cached {
		t.Fatal("no_cache request reported cached")
	}
}

// TestDeltaPreciseInvalidation is the acceptance criterion: a /v1/delta
// call invalidates only the affected cached answers — an unrelated
// cached query is still served from cache, the affected query is
// recomputed (and sees the new fact).
func TestDeltaPreciseInvalidation(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	alphaReq := QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}}
	betaReq := QueryRequest{Query: "src_obj('beta', O, C)", Vars: []string{"O", "C"}}
	globalReq := QueryRequest{Query: "covered(C)", Vars: []string{"C"}}

	_, alphaBefore := doQuery(t, ts, alphaReq)
	doQuery(t, ts, betaReq)
	doQuery(t, ts, globalReq)
	for _, r := range []QueryRequest{alphaReq, betaReq, globalReq} {
		if _, got := doQuery(t, ts, r); !got.Cached {
			t.Fatalf("warm-up failed: %q not cached", r.Query)
		}
	}

	resp, body := postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "alpha",
		Adds:   []string{"src_obj('alpha', delta_obj_1, record)"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.FactsAdded != 1 || dr.Full {
		t.Fatalf("delta report: %+v", dr)
	}
	if dr.CacheDropped != 2 {
		t.Fatalf("cache dropped %d entries, want 2 (the alpha query and the global view query)", dr.CacheDropped)
	}

	// Unrelated query: still served from cache.
	if _, got := doQuery(t, ts, betaReq); !got.Cached {
		t.Fatal("beta query was invalidated by an alpha delta")
	}
	// Affected query: recomputed, and the recomputation sees the delta.
	_, alphaAfter := doQuery(t, ts, alphaReq)
	if alphaAfter.Cached {
		t.Fatal("alpha query still served from cache after an alpha delta")
	}
	if alphaAfter.Count != alphaBefore.Count+1 {
		t.Fatalf("alpha count after delta = %d, want %d", alphaAfter.Count, alphaBefore.Count+1)
	}
	// Global (view) query: recomputed too — views can read any source.
	if _, got := doQuery(t, ts, globalReq); got.Cached {
		t.Fatal("view query still served from cache after a delta")
	}

	// Removing the fact restores the original answer.
	resp, body = postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "alpha",
		Dels:   []string{"src_obj('alpha', delta_obj_1, record)."},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	_, alphaRestored := doQuery(t, ts, alphaReq)
	if alphaRestored.Count != alphaBefore.Count {
		t.Fatalf("alpha count after removal = %d, want %d", alphaRestored.Count, alphaBefore.Count)
	}
}

func TestPlannedQuery(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := QueryRequest{Query: "src_obj('alpha', O, record)", Vars: []string{"O"}, Planned: true}
	code, first := doQuery(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if first.Count == 0 {
		t.Fatal("planned query returned no rows")
	}
	if len(first.PlanTrace) == 0 {
		t.Fatal("planned query response carries no plan trace")
	}
	_, second := doQuery(t, ts, req)
	if !second.Cached {
		t.Fatal("repeated planned query missed the cache")
	}
	// Planned and ad-hoc execution of the same text are distinct keys.
	_, adhoc := doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, record)", Vars: []string{"O"}})
	if adhoc.Cached {
		t.Fatal("ad-hoc query hit the planned query's cache entry")
	}
	if adhoc.Count != first.Count {
		t.Fatalf("ad-hoc count %d != planned count %d", adhoc.Count, first.Count)
	}
}

func TestQueryValidation(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name string
		req  QueryRequest
	}{
		{"unknown predicate", QueryRequest{Query: "phantom(X)", Vars: []string{"X"}}},
		{"empty", QueryRequest{Query: "   "}},
		{"malformed", QueryRequest{Query: "src_obj("}},
	}
	for _, tc := range cases {
		if code, _ := doQuery(t, ts, tc.req); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/query", "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad JSON: status %d, want 400", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/v1/query")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/query: status %d, want 405", resp.StatusCode)
	}
}

// TestDeltaStatusCodes pins which /v1/delta failures are the client's
// (400: the delta was refused untouched; 422: the server's evaluation
// budget) and which are the server's (500: the patch or the rebuild it
// fell back to failed, so the materialization is poisoned or missing).
func TestDeltaStatusCodes(t *testing.T) {
	warm := func(t *testing.T) *Server {
		srv, med, _ := newServeFixture(t, Config{})
		if _, err := med.Materialize(); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	// cold returns a server whose first delta must rebuild from scratch;
	// down makes that rebuild find its only source dead.
	cold := func(opts *mediator.Options, down bool) func(*testing.T) *Server {
		return func(t *testing.T) *Server {
			m := mediator.New(sources.NeuroDM(), opts)
			w, err := wrapper.NewInMemory(sources.MustSyntheticSource("alpha", 40, 6, serveConcepts))
			if err != nil {
				t.Fatal(err)
			}
			var src wrapper.Wrapper = w
			if down {
				src = wrapper.NewFaulty(w, wrapper.FaultConfig{Down: true})
			}
			if err := m.Register(src); err != nil {
				t.Fatal(err)
			}
			return New(m, Config{})
		}
	}
	good := []string{"src_obj('alpha', o_new, record)"}
	for _, tc := range []struct {
		name   string
		server func(*testing.T) *Server
		req    DeltaRequest
		want   int
	}{
		{"applied", warm, DeltaRequest{Source: "alpha", Adds: good}, http.StatusOK},
		{"malformed fact", warm, DeltaRequest{Source: "alpha", Adds: []string{"src_obj("}}, http.StatusBadRequest},
		{"non-ground fact", warm, DeltaRequest{Source: "alpha", Dels: []string{"src_obj('alpha', X, record)"}}, http.StatusBadRequest},
		{"unknown source", warm, DeltaRequest{Source: "ghost", Adds: []string{"src_obj('ghost', o1, record)"}}, http.StatusBadRequest},
		{"rebuild over budget", cold(&mediator.Options{Engine: datalog.Options{Limits: datalog.Limits{MaxDerivedFacts: 1}}}, false),
			DeltaRequest{Source: "alpha", Adds: good}, http.StatusUnprocessableEntity},
		{"rebuild fails", cold(&mediator.Options{SourceTimeout: time.Second, FailFast: true}, true), DeltaRequest{Source: "alpha", Adds: good}, http.StatusInternalServerError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(tc.server(t).Handler())
			defer ts.Close()
			resp, body := postJSON(t, ts, "/v1/delta", tc.req)
			if resp.StatusCode != tc.want {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.want, body)
			}
		})
	}
}

func TestSyncEndpoint(t *testing.T) {
	srv, _, ws := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	alphaReq := QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}}
	_, before := doQuery(t, ts, alphaReq)
	doQuery(t, ts, alphaReq) // warm the cache

	ws[0].Mutate(func(m *gcm.Model) {
		m.AddObject(gcm.Object{
			ID:    term.Atom("sync_obj_1"),
			Class: "record",
			Values: map[string][]term.Term{
				"location": {term.Atom("spine")},
				"value":    {term.Float(4.2)},
			},
		})
	})

	resp, body := postJSON(t, ts, "/v1/sync", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Refreshed []*DeltaResponse `json:"refreshed"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	var alphaRep *DeltaResponse
	for _, r := range out.Refreshed {
		if r.Source == "alpha" {
			alphaRep = r
		}
	}
	if alphaRep == nil || alphaRep.FactsAdded == 0 {
		t.Fatalf("sync reports: %s", body)
	}

	_, after := doQuery(t, ts, alphaReq)
	if after.Cached {
		t.Fatal("alpha query still cached after sync touched alpha")
	}
	if after.Count != before.Count+1 {
		t.Fatalf("count after sync = %d, want %d", after.Count, before.Count+1)
	}
}

func TestPlanEndpoint(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/plan?q=" + url.QueryEscape("src_obj('alpha', O, record)"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("plan status %d", resp.StatusCode)
	}
	var pr PlanResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	found := false
	for _, s := range pr.Sources {
		if s == "alpha" {
			found = true
		}
	}
	if !found {
		t.Fatalf("plan sources = %v, want alpha", pr.Sources)
	}

	resp, err = http.Get(ts.URL + "/v1/plan?q=phantom(X)")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown predicate plan: status %d, want 400", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/v1/plan")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing q: status %d, want 400", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status  string   `json:"status"`
		Sources []string `json:"sources"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || len(hz.Sources) != 2 {
		t.Fatalf("healthz = %+v", hz)
	}

	doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}})

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	text := buf.String()
	for _, want := range []string{
		"modelmed_serve_requests ",
		"modelmed_serve_query_ok ",
		"modelmed_serve_cache_misses ",
		"# TYPE modelmed_serve_requests counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

func TestTraceEndpointAndPerRequestTrace(t *testing.T) {
	srv, m, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Tracing off: no per-request trace, /v1/trace is 404.
	_, out := doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}, Trace: true, NoCache: true})
	if out.Trace != nil {
		t.Fatal("trace attached while tracing is disabled")
	}
	resp, err := http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace status %d, want 404", resp.StatusCode)
	}

	m.EnableTracing(true)
	_, out = doQuery(t, ts, QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}, Trace: true, NoCache: true})
	if out.Trace == nil || out.Trace.Name != "mediator.query" {
		t.Fatalf("per-request trace = %+v", out.Trace)
	}
	resp, err = http.Get(ts.URL + "/v1/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d, want 200", resp.StatusCode)
	}
}

func TestSheddingUnderLoad(t *testing.T) {
	// One slot, no queue, a source that hangs: the first request holds
	// the slot until its deadline (504); a request arriving meanwhile is
	// shed (503 + Retry-After).
	model := sources.MustSyntheticSource("slow", 7, 6, serveConcepts)
	inner, err := wrapper.NewInMemory(model)
	if err != nil {
		t.Fatal(err)
	}
	fw := wrapper.NewFaulty(inner, wrapper.FaultConfig{HangFirst: 1000, Hang: 10 * time.Second})
	m := mediator.New(sources.NeuroDM(), &mediator.Options{SourceTimeout: time.Minute})
	if err := m.Register(fw); err != nil {
		t.Fatal(err)
	}
	srv := New(m, Config{MaxInFlight: 1, MaxQueue: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	slow := QueryRequest{Query: "src_obj('slow', O, C)", Vars: []string{"O", "C"}, NoCache: true, TimeoutMs: 2000}
	var wg sync.WaitGroup
	wg.Add(1)
	var slowCode int
	go func() {
		defer wg.Done()
		slowCode, _ = doQuery(t, ts, slow)
	}()
	// Wait until the slow request holds the slot.
	deadline := time.Now().Add(2 * time.Second)
	for {
		in, _ := srv.adm.stats()
		if in == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never acquired the slot")
		}
		time.Sleep(5 * time.Millisecond)
	}

	b, _ := json.Marshal(slow)
	resp, err := http.Post(ts.URL+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("concurrent request: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("shed response carries no Retry-After")
	}

	wg.Wait()
	if slowCode != http.StatusGatewayTimeout {
		t.Fatalf("slow request: status %d, want 504", slowCode)
	}
	if got := srv.Counters().Get("serve.shed"); got != 1 {
		t.Fatalf("serve.shed = %d, want 1", got)
	}
}

func TestDrainAccounting(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			doQuery(t, ts, QueryRequest{
				Query: fmt.Sprintf("src_obj('alpha', O, C), site_count(CC, N), N >= %d", i%3),
				Vars:  []string{"O", "C"},
			})
		}(i)
	}
	wg.Wait()
	ts.Close() // waits for outstanding handlers
	if srv.Started() != srv.Finished() {
		t.Fatalf("started %d != finished %d after drain", srv.Started(), srv.Finished())
	}
}
