package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/load"
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
	// The reply carries the change in /v1/facts' rendering, numbered.
	if len(dr.Adds) != 1 || dr.Adds[0] != "src_obj(alpha,delta_obj_1,record)." || dr.Epoch == 0 || dr.To <= dr.From {
		t.Fatalf("delta reply change: %s", body)
	}
	// The same push again changes nothing and lists nothing.
	resp, body = postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "alpha",
		Adds:   []string{"src_obj('alpha', delta_obj_1, record)"},
	})
	var again DeltaResponse
	if err := json.Unmarshal(body, &again); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("repeated delta: status %d: %s", resp.StatusCode, body)
	}
	if again.FactsAdded != 0 || len(again.Adds) != 0 || again.From != dr.To {
		t.Fatalf("repeated delta reply: %s", body)
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
	if n := srv.Counters().Get("serve.cache_entries_dropped"); n != 2 {
		t.Fatalf("lookups dropped %d entries, want 2 (the alpha query and the global view query)", n)
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

// TestCacheSeesDirectMove: a source moved on the mediator directly,
// with no handler involved, reaches the answer cache. After a direct
// ApplySourceDelta, and after a direct SyncSources over a mutated
// wrapper, the next cached query misses and returns the new rows.
func TestCacheSeesDirectMove(t *testing.T) {
	srv, m, ws := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := QueryRequest{Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}}
	// check queries once bypassing the cache, then twice through it:
	// the first cached lookup must miss, the second hit, and both carry
	// the fresh rows, which hold obj.
	check := func(move, obj string) {
		t.Helper()
		_, fresh := doQuery(t, ts, QueryRequest{Query: req.Query, Vars: req.Vars, NoCache: true})
		for i, cached := range []bool{false, true} {
			_, got := doQuery(t, ts, req)
			if got.Cached != cached || !slices.EqualFunc(got.Rows, fresh.Rows, slices.Equal) {
				t.Fatalf("after %s, lookup %d: cached %v, %d rows; want cached %v and the %d fresh rows",
					move, i+1, got.Cached, got.Count, cached, fresh.Count)
			}
		}
		if !slices.ContainsFunc(fresh.Rows, func(r []string) bool { return r[0] == obj }) {
			t.Fatalf("after %s: the fresh rows lack %s", move, obj)
		}
	}
	doQuery(t, ts, req)
	if _, got := doQuery(t, ts, req); !got.Cached {
		t.Fatal("warm-up: the query missed")
	}

	adds, err := parseFacts([]string{"src_obj('alpha', direct_obj_1, record)"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ApplySourceDelta("alpha", adds, nil); err != nil {
		t.Fatal(err)
	}
	check("ApplySourceDelta", "direct_obj_1")

	ws[0].Mutate(func(mod *gcm.Model) {
		mod.AddObject(gcm.Object{ID: term.Atom("direct_sync_obj"), Class: "record",
			Values: map[string][]term.Term{"location": {term.Atom("spine")}}})
	})
	if _, err := m.SyncSources(); err != nil {
		t.Fatal(err)
	}
	check("SyncSources", "direct_sync_obj")
}

// TestPlannedFieldSeesPushedDelta: /v1/query has one route, the
// materialized base. A client that still sends the retired
// "planned": true field is answered by that route too, so its answer
// includes a pushed delta.
func TestPlannedFieldSeesPushedDelta(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	planned := map[string]any{"query": "src_obj('alpha', O, record)", "vars": []string{"O"}, "planned": true, "no_cache": true}
	query := func() []string {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/query", planned)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		var objs []string
		for _, row := range out.Rows {
			objs = append(objs, row[0])
		}
		return objs
	}
	before := query()
	if len(before) == 0 {
		t.Fatal("query returned no rows")
	}
	resp, body := postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "alpha",
		Adds:   []string{"src_obj('alpha', probe_obj, record)"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	after := query()
	if len(after) != len(before)+1 || !slices.Contains(after, "probe_obj") {
		t.Fatalf("after the delta: %d rows %v, want %d including probe_obj", len(after), after, len(before)+1)
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
		{"fact of another source", warm, DeltaRequest{Source: "alpha", Adds: []string{"src_obj('beta', o1, record)"}}, http.StatusBadRequest},
		{"anchor at unknown concept", warm, DeltaRequest{Source: "alpha", Adds: []string{"anchor('alpha', o1, uncharted_region)"}}, http.StatusBadRequest},
		{"rebuild over budget", cold(&mediator.Options{Engine: datalog.Options{Limits: datalog.Limits{MaxDerivedFacts: 1}}}, false),
			DeltaRequest{Source: "alpha", Adds: good}, http.StatusUnprocessableEntity},
		// The rebuild leaves the down source out, so the push to it fails.
		{"rebuild fails", cold(&mediator.Options{SourceTimeout: time.Second}, true), DeltaRequest{Source: "alpha", Adds: good}, http.StatusInternalServerError},
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

// TestQueryFlagsMissingSource: an answer over a value that lacks a
// registered source says so. beta is down at boot, so the build leaves
// it out; a query over alpha answers, flagged partial with beta
// missing, computed and cached alike. Once every source is held the
// flags are gone.
func TestQueryFlagsMissingSource(t *testing.T) {
	m := mediator.New(sources.NeuroDM(), &mediator.Options{SourceTimeout: time.Second})
	for i, name := range []string{"alpha", "beta"} {
		w, err := wrapper.NewInMemory(sources.MustSyntheticSource(name, int64(40+i), 6, serveConcepts))
		if err != nil {
			t.Fatal(err)
		}
		var src wrapper.Wrapper = w
		if name == "beta" {
			src = wrapper.NewFaulty(w, wrapper.FaultConfig{Down: true})
		}
		if err := m.Register(src); err != nil {
			t.Fatal(err)
		}
	}
	ts := httptest.NewServer(New(m, Config{}).Handler())
	defer ts.Close()
	query := func(noCache bool) map[string]any {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Query: "src_obj('alpha', O, C)", NoCache: noCache})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		var out map[string]any
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, cached := range []bool{false, true} {
		out := query(false)
		if out["cached"] != cached || out["count"] == 0.0 {
			t.Fatalf("cached %v, count %v; want cached %v and rows", out["cached"], out["count"], cached)
		}
		if out["partial"] != true || fmt.Sprint(out["missing"]) != "[beta]" {
			t.Errorf("partial %v, missing %v; want true and [beta]", out["partial"], out["missing"])
		}
	}
	m.Unregister("beta")
	// The cached answer was computed with beta missing: after the
	// Unregister, which reaches no handler, a lookup must miss.
	for _, noCache := range []bool{false, true} {
		out := query(noCache)
		if out["cached"] != false {
			t.Errorf("no_cache=%v: answered from the cache after Unregister: %v", noCache, out)
		}
		if _, ok := out["partial"]; ok {
			t.Errorf("answer over every registered source is flagged: %v", out)
		}
		if _, ok := out["missing"]; ok {
			t.Errorf("answer over every registered source names a missing one: %v", out)
		}
	}
	// Every other program change made on the mediator directly misses
	// the cache too; the query warmed before each is a hit first.
	gamma, err := wrapper.NewInMemory(sources.MustSyntheticSource("gamma", 42, 6, serveConcepts))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		change func() error
	}{
		{"Register", func() error { return m.Register(gamma) }},
		{"DefineView", func() error { return m.DefineView(serveViews) }},
		{"RegisterKnowledge", func() error { return m.RegisterKnowledge(sources.Fig3Registration()...) }},
		{"Invalidate", func() error { m.Invalidate(); return nil }},
	} {
		if out := query(false); out["cached"] != true {
			t.Fatalf("before %s: the warmed query missed: %v", c.name, out)
		}
		if err := c.change(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if out := query(false); out["cached"] != false {
			t.Errorf("answered from the cache after %s: %v", c.name, out)
		}
		// The entry is stamped from the value its answer was read
		// from, built after the change: the next lookup hits.
		if out := query(false); out["cached"] != true {
			t.Errorf("second lookup after %s missed: %v", c.name, out)
		}
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

// TestTraceShowsQueryEvaluator: a traced response says, on its
// evaluate span, which evaluator answered (compiled 1 or 0) and how many
// solutions it enumerated before duplicates were removed.
func TestTraceShowsQueryEvaluator(t *testing.T) {
	srv, m, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	m.EnableTracing(true)
	evaluate := func(q string, vars ...string) (*QueryResponse, map[string]int64) {
		t.Helper()
		code, out := doQuery(t, ts, QueryRequest{Query: q, Vars: vars, Trace: true, NoCache: true})
		if code != http.StatusOK || out.Trace == nil {
			t.Fatalf("%s: status %d, trace %v", q, code, out.Trace)
		}
		for _, c := range out.Trace.Children {
			if c.Name == "evaluate" {
				return out, c.Ints
			}
		}
		t.Fatalf("%s: no evaluate span in %+v", q, out.Trace)
		return nil, nil
	}
	_, objs := evaluate("src_obj('alpha', O, C)", "O")
	out, ints := evaluate("src_obj('alpha', O, C)", "C")
	if ints["compiled"] != 1 {
		t.Errorf("plain join: compiled = %d, want 1", ints["compiled"])
	}
	if ints["rows"] != int64(out.Count) || ints["solutions"] != objs["rows"] || ints["solutions"] <= ints["rows"] {
		t.Errorf("projection onto C: rows %d, solutions %d; want %d rows from %d solutions",
			ints["rows"], ints["solutions"], out.Count, objs["rows"])
	}
	if _, ints = evaluate("src_obj('alpha', O, C), N is 1 + 1", "N"); ints["compiled"] != 0 || ints["rows"] != 1 {
		t.Errorf("is: compiled = %d, rows = %d; want the interpreter and 1 row", ints["compiled"], ints["rows"])
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
	// The hang outlasts the 2s request deadline but not by much: the
	// abandoned sleep must end within leakcheck's settle window even
	// when this test runs last.
	fw := wrapper.NewFaulty(inner, wrapper.FaultConfig{HangFirst: 1000, Hang: 3 * time.Second})
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

// requestID is the header idTransport stamps every request with.
const requestID = "X-Test-Request-Id"

// idTransport is an http.RoundTripper that stamps each request with a
// fresh ID (requestID) and records the IDs of the requests that got a
// transport error the caller did not cause by cancelling.
type idTransport struct {
	base   http.RoundTripper
	next   atomic.Int64
	mu     sync.Mutex
	failed []string
}

func (c *idTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	id := strconv.FormatInt(c.next.Add(1), 10)
	r = r.Clone(r.Context())
	r.Header.Set(requestID, id)
	resp, err := c.base.RoundTrip(r)
	if err != nil && r.Context().Err() == nil {
		c.mu.Lock()
		c.failed = append(c.failed, id)
		c.mu.Unlock()
	}
	return resp, err
}

// TestDrainUnderLoadDropsNothing: BeginDrain plus Shutdown while a
// closed loop keeps requests in flight finishes every request the
// server admitted. The handler records the ID of every request it
// receives: a transport error on one of those is a drop. An error on a
// request the server never received — refused at the dial once the
// listener closed, or reset in the kernel's accept backlog before the
// server accepted its connection — is a refusal.
func TestDrainUnderLoadDropsNothing(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	h := srv.Handler()
	var seen sync.Map
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen.Store(r.Header.Get(requestID), true)
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	tr := &idTransport{base: &http.Transport{DisableKeepAlives: true}}
	ctx, stopLoad := context.WithCancel(context.Background())
	defer stopLoad()
	type result struct {
		st  load.Stats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := load.Run(load.Config{
			BaseURL: ts.URL,
			Requests: []load.Request{
				{Query: "src_obj('alpha', O, C), site_count(CC, N), N >= 1", Vars: []string{"O", "C"}, NoCache: true},
				{Query: "src_obj('beta', O, C)", Vars: []string{"O", "C"}, NoCache: true},
			},
			Concurrency: 8,
			Duration:    30 * time.Second,
			Client:      &http.Client{Transport: tr},
			Ctx:         ctx,
		})
		done <- result{st, err}
	}()

	// Drain mid-window, with requests admitted and not yet finished.
	waitFor(t, 10*time.Second, func() bool {
		return srv.Finished() >= 20 && srv.Started() > srv.Finished()
	})
	srv.BeginDrain()
	sctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(sctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	stopLoad()
	res := <-done
	if res.err != nil {
		t.Fatal(res.err)
	}
	if srv.Started() != srv.Finished() {
		t.Fatalf("started %d != finished %d after drain", srv.Started(), srv.Finished())
	}
	var dropped, refused []string
	for _, id := range tr.failed {
		if _, ok := seen.Load(id); ok {
			dropped = append(dropped, id)
		} else {
			refused = append(refused, id)
		}
	}
	if len(dropped) != 0 {
		t.Fatalf("%d admitted requests got a transport error (request IDs %v)", len(dropped), dropped)
	}
	if res.st.OK == 0 || res.st.OtherHTTP != 0 {
		t.Fatalf("load: %s (other HTTP %d)", res.st, res.st.OtherHTTP)
	}
	t.Logf("%d requests finished, %d refused after the listener closed", srv.Finished(), len(refused))
}

// TestQueryScratchValues: a value a query computes that no relation
// holds (an is result, a compound built by =, a query-body aggregate)
// is answered in the bytes it always was, and an answer kept in the
// cache renders the same after other queries computed values of their
// own: no answer's cells point into another's.
func TestQueryScratchValues(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	cases := []struct {
		query string
		vars  []string
		want  string
	}{
		{`src_val('alpha', O, value, A), X is A * 3`, []string{"O", "X"},
			`{"vars":["O","X"],"rows":[["alpha_o0","201.60000000000002"],["alpha_o1","33.3"],["alpha_o2","173.7"],["alpha_o3","129.3"],["alpha_o4","173.10000000000002"],["alpha_o5","20.4"]],"count":6,"cached":false}` + "\n"},
		{`src_obj('alpha', O, C), P = pair(O, C)`, []string{"P"},
			`{"vars":["P"],"rows":[["pair(alpha_o0,record)"],["pair(alpha_o1,record)"],["pair(alpha_o2,record)"],["pair(alpha_o3,record)"],["pair(alpha_o4,record)"],["pair(alpha_o5,record)"]],"count":6,"cached":false}` + "\n"},
		{`N = count{O; src_obj(S, O, C)}`, []string{"N"},
			`{"vars":["N"],"rows":[["12"]],"count":1,"cached":false}` + "\n"},
		{`covered(C), N = count{O[C]; anchor(S, O, C)}, H is N / 2`, []string{"C", "N", "H"},
			`{"vars":["C","N","H"],"rows":[["cerebellum","7","3.5"],["dendrite","1","0.5"],["soma","3","1.5"],["spine","1","0.5"]],"count":4,"cached":false}` + "\n"},
	}
	query := func(i int) string {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/query", QueryRequest{Query: cases[i].query, Vars: cases[i].vars})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", cases[i].query, resp.StatusCode, body)
		}
		return string(body)
	}
	for i, c := range cases {
		if got := query(i); got != c.want {
			t.Errorf("%s:\n got %s\nwant %s", c.query, got, c.want)
		}
	}
	for i, c := range cases {
		want := strings.Replace(c.want, `"cached":false`, `"cached":true`, 1)
		if got := query(i); got != want {
			t.Errorf("%s, cached:\n got %s\nwant %s", c.query, got, want)
		}
	}
}
