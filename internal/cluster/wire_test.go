package cluster

// The router's replies are written by hand from shard bytes and answer
// cells; these tests hold them to the bytes decoding every shard reply
// into serve.QueryResponse and re-encoding the merged answer with
// encoding/json wrote, and hold the pooled buffers they pass through to
// never being read after they are reused.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
	"modelmed/internal/obs"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/term"
)

// shardReply is a shard's /v1/query body, written by serve's encoder.
func shardReply(t testing.TB, resp *serve.QueryResponse, rows [][]term.Term) []byte {
	t.Helper()
	cells := make([][]datalog.Cell, len(rows))
	for i, row := range rows {
		for _, tm := range row {
			cells[i] = append(cells[i], datalog.CellOf(tm))
		}
	}
	resp.Count = len(rows)
	e := serve.GetReplyEncoder()
	defer e.Release()
	if err := e.Encode(resp, cells); err != nil {
		t.Fatal(err)
	}
	return bytes.Clone(e.Buf)
}

// jsonReply is a router reply as encoding/json writes it.
func jsonReply(t testing.TB, resp *QueryResponse) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRouterReply holds the proxy relay and the scatter merge to
// decoding: for shard replies serve writes over drawn cells — quotes,
// <>&, U+2028, invalid UTF-8, empty answers, rows repeated across
// shards, cached, partial, missing and trace — the router's bytes must
// equal json.NewEncoder(...).Encode(&QueryResponse{...}) over the
// decoded replies, merged by a textual key. A proxy relays its shard's
// cached flag; a scatter's union is never cached.
func FuzzRouterReply(f *testing.F) {
	f.Add("purkinje_cell", `say "hi"`, "<b>&amp;</b>", uint8(0))
	f.Add("\u2028 \u2029", "\xff\xfe bad \xc3", "é 日本", uint8(0x1c))
	f.Add("", "\x00\x1f\x7f\b\f", `back\slash 'q'`, uint8(0x23))
	f.Add("x", "x", "x", uint8(0xff))
	f.Fuzz(func(t *testing.T, x, y, z string, flags uint8) {
		rows := [2][][]term.Term{
			{{term.Var(x), term.Atom(y)}, {term.Str(z), term.Var(y)}},
			{{term.Var(x), term.Atom(y)}, {term.Atom(z), term.Var(z)}, {term.Var(y), term.Str(x)}},
		}
		var bodies [2][]byte
		for i := range bodies {
			resp := &serve.QueryResponse{Vars: []string{"O", x}}
			if flags&(1<<i) != 0 {
				rows[i] = nil
			}
			if i == 1 && flags&4 != 0 {
				resp.Vars = nil
			}
			if flags&(8<<i) != 0 {
				resp.Partial, resp.Missing = true, []string{y}
			}
			resp.Cached = flags&(64<<i) != 0
			if flags&32 != 0 {
				resp.Trace = &obs.SpanExport{Name: z, Strs: map[string]string{x: y}}
			}
			bodies[i] = shardReply(t, resp, rows[i])
		}
		var answers [2]*ShardAnswer
		var decoded [2]serve.QueryResponse
		for i, body := range bodies {
			a, err := readShardAnswer(bytes.NewReader(body), int64(len(body)))
			if err != nil {
				t.Fatalf("read %q: %v", body, err)
			}
			defer a.Release()
			answers[i] = a
			if err := json.Unmarshal(body, &decoded[i]); err != nil {
				t.Fatal(err)
			}
		}
		check := func(what string, got []byte, want *QueryResponse) {
			t.Helper()
			if w := jsonReply(t, want); !bytes.Equal(got, w) {
				t.Fatalf("%s: router bytes differ from encoding/json\n got: %q\nwant: %q", what, got, w)
			}
		}
		e := serve.GetReplyEncoder()
		defer e.Release()

		rep := ShardReport{ID: "shard0", Sources: []string{x, "<&>"}, Status: "ok"}
		relay(e, answers[0], rep).finish(e)
		d := decoded[0]
		rep.Rows = len(d.Rows)
		check("proxy", e.Buf, &QueryResponse{Vars: d.Vars, Rows: d.Rows, Count: len(d.Rows), Cached: d.Cached, Partial: d.Partial, Mode: "proxy", Shards: []ShardReport{rep}})

		// Scatter over three shards, the middle one failed.
		reps := []ShardReport{
			{ID: "shard0", Status: "ok", Rows: len(decoded[0].Rows)},
			{ID: "shard1", Status: "failed", Error: "cluster: " + z},
			{ID: "shard2", Sources: []string{y}, Status: "ok", Rows: len(decoded[1].Rows)},
		}
		r := &reply{mode: "scatter", partial: true, shards: reps}
		r.count = mergeRows(e, []*ShardAnswer{answers[0], nil, answers[1]})
		r.finish(e)
		want := &QueryResponse{Partial: true, Mode: "scatter", Shards: reps}
		seen := map[string]bool{}
		for _, d := range decoded {
			if want.Vars == nil {
				want.Vars = d.Vars
			}
			for _, row := range d.Rows {
				// Each cell quoted, so that no cell can pass for two.
				k := fmt.Sprintf("%q", row)
				if !seen[k] {
					seen[k] = true
					want.Rows = append(want.Rows, row)
				}
			}
		}
		want.Count = len(want.Rows)
		check("scatter", e.Buf, want)

		// Replicated and gather replies encode the answer's cells.
		cells := [][]datalog.Cell{}
		for _, row := range rows[1] {
			var cr []datalog.Cell
			for _, tm := range row {
				cr = append(cr, datalog.CellOf(tm))
			}
			cells = append(cells, cr)
		}
		e.Head([]string{x})
		e.CellRows(cells)
		r = &reply{count: len(cells), mode: "gather", shards: reps[:1]}
		r.finish(e)
		check("gather", e.Buf, &QueryResponse{Vars: []string{x}, Rows: datalog.RenderRows(cells), Count: len(cells), Mode: "gather", Shards: reps[:1]})
	})
}

// TestShardRowsInAnyJSONForm: a reply whose strings are not in serve's
// encoding — escapes serve does not write, raw bytes it escapes,
// surrogates, space between tokens — relays and merges as decoding it
// did.
func TestShardRowsInAnyJSONForm(t *testing.T) {
	bodies := []string{
		`{"vars":["X"],"rows":[["a\/b"],["\u0041\u003C\u00e9"],["<&>"],["\uD83D\uDE00"],["\ud800x"],["\ufffd"]]}`,
		" { \"rows\" : [ [ \"\u2028\" , \"\xff\" ] , [ ] ] , \"vars\" : null , \"count\" : 2 } \n",
		`{"rows":[["\u000A\u0008\u001f\u007F"],["A"]],"partial":true,"rows":[["\u0061"],["a"]]}`,
	}
	for _, body := range bodies {
		a, err := readShardAnswer(strings.NewReader(body), -1)
		if err != nil {
			t.Fatalf("%q: %v", body, err)
		}
		var d serve.QueryResponse
		if err := json.Unmarshal([]byte(body), &d); err != nil {
			t.Fatal(err)
		}
		e := serve.GetReplyEncoder()
		rep := ShardReport{ID: "shard0", Status: "ok", Rows: len(d.Rows)}
		relay(e, a, rep).finish(e)
		want := jsonReply(t, &QueryResponse{Vars: d.Vars, Rows: d.Rows, Count: len(d.Rows), Partial: d.Partial, Mode: "proxy", Shards: []ShardReport{rep}})
		if !bytes.Equal(e.Buf, want) {
			t.Errorf("relay of %q\n got: %q\nwant: %q", body, e.Buf, want)
		}
		if n := mergeRows(e, []*ShardAnswer{a, a}); n != len(rowSet(d.Rows)) {
			t.Errorf("merge of %q twice: %d rows, want %d", body, n, len(rowSet(d.Rows)))
		}
		e.Release()
		a.Release()
	}
}

// rawQuery posts req to the router and returns the status and the
// reply's bytes.
func rawQuery(t testing.TB, base string, req serve.QueryRequest) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testHTTP.Post(base+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestRouterReplyBytes: in every mode, and on a repeat, a partial
// scatter and a traced query, the router's reply is byte for byte
// encoding/json's encoding of what it decodes to — so the bytes are
// those the router wrote when it decoded shard replies and encoded a
// QueryResponse — and an empty answer's rows are null or [] as they
// were: null only from a scatter, which unions no rows. Only a proxy
// is ever cached: it relays its shard's flag.
func TestRouterReplyBytes(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})
	proxy := serve.QueryRequest{Query: `src_obj('SENSELAB', N, neurotransmission)`, Vars: []string{"N"}}
	// The shards attach a trace when asked, which the router drops.
	for _, sh := range c.shards {
		sh.med.EnableTracing(true)
	}
	traced := serve.QueryRequest{Query: proxy.Query, Vars: proxy.Vars, Trace: true}
	if _, body := rawQuery(t, c.shards[0].hs.URL, traced); !bytes.Contains(body, []byte(`"trace":{`)) {
		t.Fatalf("shard0 sends no trace: %s", body)
	}
	cases := []struct {
		name   string
		req    serve.QueryRequest
		mode   string
		empty  string // the rows of an empty answer; "" when not empty
		cached bool
	}{
		{"replicated", serve.QueryRequest{Query: `dm_isa_star(C, neuron)`, Vars: []string{"C"}}, "replicated", "", false},
		{"replicated empty", serve.QueryRequest{Query: `dm_isa_star(no_such_concept, C)`}, "replicated", "[]", false},
		// shard0's cache holds the traced query sent to it above.
		{"proxy", proxy, "proxy", "", true},
		{"proxy empty", serve.QueryRequest{Query: `src_obj('SENSELAB', N, no_such_class)`}, "proxy", "[]", false},
		{"scatter", serve.QueryRequest{Query: `anchor(S, O, C), dm_isa_star(C, dendrite)`}, "scatter", "", false},
		{"scatter empty", serve.QueryRequest{Query: `anchor(S, O, no_such_class)`}, "scatter", "null", false},
		{"gather", serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`}, "gather", "", false},
		{"gather empty", serve.QueryRequest{Query: `src_obj('SYNAPSE', O, no_such_class), src_obj('NCMIR', P, D)`}, "gather", "[]", false},
		{"trace", traced, "proxy", "", true},
	}
	first := map[string][]byte{}
	for _, tc := range cases {
		status, body := rawQuery(t, c.base(), tc.req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.name, status, body)
		}
		var resp QueryResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if want := jsonReply(t, &resp); !bytes.Equal(body, want) {
			t.Errorf("%s: reply is not encoding/json's\n got: %q\nwant: %q", tc.name, body, want)
		}
		if resp.Mode != tc.mode || resp.Cached != tc.cached || resp.Partial {
			t.Errorf("%s: mode %s cached %v partial %v, want mode %s cached %v", tc.name, resp.Mode, resp.Cached, resp.Partial, tc.mode, tc.cached)
		}
		if tc.empty != "" && !bytes.Contains(body, []byte(`"rows":`+tc.empty+`,`)) {
			t.Errorf("%s: want rows %s, got %s", tc.name, tc.empty, body)
		}
		if tc.empty == "" && resp.Count == 0 {
			t.Errorf("%s: empty answer", tc.name)
		}
		if bytes.Contains(body, []byte(`"trace"`)) || bytes.Contains(body, []byte(`"missing"`)) {
			t.Errorf("%s: the router relays a shard's trace or missing: %s", tc.name, body)
		}
		first[tc.name] = body
	}

	// A repeat is the first reply again, with cached set by the shard's
	// cache for a proxy.
	for _, name := range []string{"replicated", "proxy empty", "scatter", "gather"} {
		tc := cases[0]
		for _, c := range cases {
			if c.name == name {
				tc = c
			}
		}
		status, body := rawQuery(t, c.base(), tc.req)
		want := first[name]
		if tc.mode == "proxy" {
			want = bytes.Replace(want, []byte(`"cached":false`), []byte(`"cached":true`), 1)
		}
		if status != http.StatusOK || !bytes.Equal(body, want) {
			t.Errorf("%s repeat: status %d\n got: %q\nwant: %q", name, status, body, want)
		}
	}

	// A scatter with a shard down is partial, with the shard failed.
	c.shards[1].down.Store(true)
	status, body := rawQuery(t, c.base(), serve.QueryRequest{Query: `anchor(S, O, C)`, NoCache: true})
	var resp QueryResponse
	if err := json.Unmarshal(body, &resp); err != nil || status != http.StatusOK {
		t.Fatalf("partial scatter: status %d, %v", status, err)
	}
	if want := jsonReply(t, &resp); !bytes.Equal(body, want) {
		t.Errorf("partial scatter: reply is not encoding/json's\n got: %q\nwant: %q", body, want)
	}
	if !resp.Partial || len(resp.Shards) != 2 || resp.Shards[1].Status != "failed" || resp.Count == 0 {
		t.Errorf("partial scatter: partial %v shards %+v count %d", resp.Partial, resp.Shards, resp.Count)
	}
}

// cannedShard serves /healthz as the owner of sources and every
// /v1/query with body.
func cannedShard(t testing.TB, sources []string, body []byte) *httptest.Server {
	t.Helper()
	health, err := json.Marshal(map[string]any{"status": "ok", "sources": sources})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if r.URL.Path == "/healthz" {
			w.Write(health)
			return
		}
		w.Write(body)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// cannedRouter fronts two canned shards: shard0 owns SYNAPSE and
// answers body0, shard1 owns NCMIR and answers body1.
func cannedRouter(t testing.TB, body0, body1 []byte) *Router {
	t.Helper()
	rep := mediator.New(sources.NeuroDM(), nil)
	if err := rep.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	rt, err := NewRouter(RouterConfig{Replica: rep, Shards: []ShardConfig{
		{ID: "shard0", URL: cannedShard(t, []string{"SYNAPSE"}, body0).URL},
		{ID: "shard1", URL: cannedShard(t, []string{"NCMIR"}, body1).URL},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Discover(context.Background()); err != nil {
		t.Fatal(err)
	}
	return rt
}

// serveQuery sends req through h and returns the status and body.
func serveQuery(t testing.TB, h http.Handler, req serve.QueryRequest) (int, []byte) {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// TestBadShardReplyIsAShardFailure: a shard that answers 200 with a
// reply that does not read — cut short, rows that are not arrays, a
// cell that is not a string — has failed, as when its reply did not
// decode: a proxy to it answers 502 and opens its breaker, and a
// scatter answers partial with it failed. A null cell is refused too;
// decoding took it for an empty string.
func TestBadShardReplyIsAShardFailure(t *testing.T) {
	good := []byte(`{"vars":["O","C"],"rows":[["o1","spine"]],"count":1,"cached":false}` + "\n")
	bad := map[string]string{
		"truncated":       `{"vars":["O","C"],"rows":[["o1","spine"],["o2"`,
		"truncated cell":  `{"vars":["O","C"],"rows":[["o1","spi`,
		"rows not arrays": `{"vars":["O","C"],"rows":["o1","spine"],"count":2,"cached":false}`,
		"rows an object":  `{"vars":["O","C"],"rows":{"o1":"spine"},"count":1,"cached":false}`,
		"number cell":     `{"vars":["O","C"],"rows":[["o1",1]],"count":1,"cached":false}`,
		"null cell":       `{"vars":["O","C"],"rows":[["o1",null]],"count":1,"cached":false}`,
		"empty body":      ``,
	}
	proxy := serve.QueryRequest{Query: `src_obj('NCMIR', O, C)`, NoCache: true}
	scatter := serve.QueryRequest{Query: `src_obj(S, O, C)`, Vars: []string{"O", "C"}, NoCache: true}
	for name, body := range bad {
		t.Run(name, func(t *testing.T) {
			rt := cannedRouter(t, good, []byte(body))
			status, reply := serveQuery(t, rt.Handler(), scatter)
			var resp QueryResponse
			if err := json.Unmarshal(reply, &resp); err != nil || status != http.StatusOK {
				t.Fatalf("scatter: status %d, %v: %s", status, err, reply)
			}
			if !resp.Partial || resp.Count != 1 || len(resp.Shards) != 2 || resp.Shards[1].Status != "failed" {
				t.Errorf("scatter: %s, want partial with shard1 failed", reply)
			}

			rt = cannedRouter(t, good, []byte(body))
			if status, reply := serveQuery(t, rt.Handler(), proxy); status != http.StatusBadGateway {
				t.Errorf("proxy: status %d, want 502: %s", status, reply)
			}
			sh, _ := rt.Manager().Owner("NCMIR")
			if rep := rt.Manager().Report(sh); rep.Status != "down" {
				t.Errorf("proxy: shard1 %+v, want its breaker open", rep)
			}
		})
	}
}

// TestPooledRepliesAreNotAliased: a repeated proxy reply (cached set by
// its shard) and gather reply stay byte for byte the first reply while
// 200 other queries pass through the same pools, some by callers that
// drop the shard answer unreleased. Run it under -race.
func TestPooledRepliesAreNotAliased(t *testing.T) {
	c := newTestCluster(t, 2026, 20, 30, 15, twoShardAssign(), nil, RouterConfig{})
	proxy := serve.QueryRequest{Query: `src_obj('SYNAPSE', O, C)`, Vars: []string{"O", "C"}}
	gather := serve.QueryRequest{Query: `protein_distribution(Root, P, Org, T, N)`}
	want := map[*serve.QueryRequest][]byte{}
	for _, req := range []*serve.QueryRequest{&proxy, &gather} {
		status, body := rawQuery(t, c.base(), *req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d", req.Query, status)
		}
		want[req] = body
	}
	want[&proxy] = bytes.Replace(want[&proxy], []byte(`"cached":false`), []byte(`"cached":true`), 1)
	others := []serve.QueryRequest{
		{Query: `src_obj('NCMIR', O, C)`, NoCache: true},
		{Query: `anchor(S, O, C)`, NoCache: true},
		{Query: `protein_distribution(Root, P, Org, T, N)`, Vars: []string{"P", "N"}, NoCache: true},
		{Query: `dm_isa_star(C, neuron)`, NoCache: true},
		{Query: `src_obj('SENSELAB', N, C)`, Vars: []string{"C"}},
	}
	shards := c.router.Manager().Shards()
	var wg sync.WaitGroup
	errs := make(chan error, 400)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if i%10 == 0 {
					// Drop a shard answer unreleased.
					if _, err := c.router.Manager().Query(context.Background(), shards[i%2], "", &others[0]); err != nil {
						errs <- err
					}
					continue
				}
				req := others[(g+i)%len(others)]
				if status, body := rawQuery(t, c.base(), req); status != http.StatusOK {
					errs <- fmt.Errorf("%s: status %d: %s", req.Query, status, body)
				}
				for q, w := range want {
					if status, body := rawQuery(t, c.base(), *q); status != http.StatusOK || !bytes.Equal(body, w) {
						errs <- fmt.Errorf("%s hit during the run: status %d\n got: %q\nwant: %q", q.Query, status, body, w)
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for q, w := range want {
		if status, body := rawQuery(t, c.base(), *q); status != http.StatusOK || !bytes.Equal(body, w) {
			t.Errorf("%s hit after the run: status %d\n got: %q\nwant: %q", q.Query, status, body, w)
		}
	}
}

// discardWriter is a ResponseWriter that keeps nothing.
type discardWriter struct{ h http.Header }

func (w *discardWriter) Header() http.Header         { return w.h }
func (w *discardWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *discardWriter) WriteHeader(int)             {}

// cannedRows is a shard reply of n two-cell rows, each cell prefixed.
func cannedRows(prefix string, n int) []byte {
	var b bytes.Buffer
	b.WriteString(`{"vars":["O","C"],"rows":[`)
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `["%s_obj_%d","'%s class'"]`, prefix, i, prefix)
	}
	fmt.Fprintf(&b, `],"count":%d,"cached":false}`+"\n", n)
	return b.Bytes()
}

// TestRouterRelayBytesPerRow holds what the router allocates for a
// relayed row to the row's bytes moving, not to decoding it: proxied
// (one shard's rows) and scattered (two shards' rows, merged), at 500
// and 5,000 rows a shard, at most 64 bytes a relayed row, and 5,000
// rows within 1.5x of 500's figure. Relaying bytes through pooled
// buffers reads about 40 and 4 bytes a row proxied, 29 and 3
// scattered. Decoding each reply into [][]string, merging by string
// keys and encoding a QueryResponse with encoding/json read 271 and
// 293 bytes a row proxied, 453 and 578–599 scattered. Not parallel: it
// reads the process's allocation counter.
func TestRouterRelayBytesPerRow(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation profile; the race detector drops pooled buffers")
	}
	// One P: a pooled buffer put back on one P's private slot is out of
	// reach of a request that runs on another.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	perRow := map[string]map[int]float64{"proxy": {}, "scatter": {}}
	for _, n := range []int{500, 5000} {
		rt := cannedRouter(t, cannedRows("syn", n), cannedRows("ncm", n))
		h := rt.Handler()
		for mode, req := range map[string]serve.QueryRequest{
			"proxy":   {Query: `src_obj('SYNAPSE', O, C)`, NoCache: true},
			"scatter": {Query: `src_obj(S, O, C)`, Vars: []string{"O", "C"}, NoCache: true},
		} {
			relayed := n
			if mode == "scatter" {
				relayed = 2 * n
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			run := func() {
				w := &discardWriter{h: http.Header{}}
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
			}
			if status, reply := serveQuery(t, h, req); status != http.StatusOK || !bytes.Contains(reply, []byte(`"count":`+strconv.Itoa(relayed)+`,`)) {
				t.Fatalf("%s %d: status %d: %.200s", mode, n, status, reply)
			}
			for i := 0; i < 3; i++ {
				run()
			}
			// The least of three batches, each started just after a
			// collection: a collection during a batch can leave a pooled
			// buffer out of reach of the next request, which then grows
			// its own.
			const runs = 10
			perRow[mode][n] = math.Inf(1)
			for batch := 0; batch < 3; batch++ {
				runtime.GC()
				run() // take the pooled buffers back from the victim cache
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < runs; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				b := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(relayed)
				perRow[mode][n] = min(perRow[mode][n], b)
			}
		}
	}
	for mode, byN := range perRow {
		t.Logf("%s: %.1f bytes a row at 500 rows, %.1f at 5,000", mode, byN[500], byN[5000])
		for n, b := range byN {
			if b > 64 {
				t.Errorf("%s: %.1f bytes a relayed row at %d rows, want at most 64", mode, b, n)
			}
		}
		if byN[5000] > 1.5*byN[500] {
			t.Errorf("%s: %.1f bytes a row at 5,000 rows, over 1.5x the %.1f at 500", mode, byN[5000], byN[500])
		}
	}
}
