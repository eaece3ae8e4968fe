package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/parser"
)

// serveJSON sends body to path on h in-process and returns the status
// and the response body.
func serveJSON(t testing.TB, h http.Handler, path string, body any) (int, []byte) {
	b, err := json.Marshal(body)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b)))
	return rec.Code, rec.Body.Bytes()
}

// TestPreparedQuerySeesConstantInternedLater: a query on a constant no
// relation has ever held answers no rows, and once a delta adds a fact
// holding it, the same text answers that fact — a prepared query
// compiled while the constant had no ID is not kept past its interning.
// Each case uses a constant of its own, so no other test interns it,
// and a new one each run, since the intern table is process-wide.
func TestPreparedQuerySeesConstantInternedLater(t *testing.T) {
	run := laterRuns.Add(1)
	t.Run("query", func(t *testing.T) {
		class := fmt.Sprintf("prep_later_query_class_%d", run)
		srv, _, _ := newServeFixture(t, Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		req := QueryRequest{Query: "src_obj('alpha', O, " + class + ")", Vars: []string{"O"}, NoCache: true}
		for i := 0; i < 2; i++ { // the second request runs the prepared text
			code, ans := doQuery(t, ts, req)
			if code != http.StatusOK || ans.Count != 0 {
				t.Fatalf("before the delta: status %d, answer %+v", code, ans)
			}
		}
		resp, body := postJSON(t, ts, "/v1/delta", DeltaRequest{
			Source: "alpha",
			Adds:   []string{"src_obj('alpha', prep_later_obj, " + class + ")"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta status %d: %s", resp.StatusCode, body)
		}
		for i := 0; i < 2; i++ {
			code, ans := doQuery(t, ts, req)
			if code != http.StatusOK || ans.Count != 1 || ans.Rows[0][0] != "prep_later_obj" {
				t.Fatalf("after the delta (request %d): status %d, answer %+v", i, code, ans)
			}
		}
	})
	t.Run("subscribe", func(t *testing.T) {
		class := fmt.Sprintf("prep_later_sub_class_%d", run)
		srv, _, _ := newServeFixture(t, Config{})
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		defer srv.BeginDrain()
		c := openSSE(t, ts, SubscribeRequest{
			Query: "src_obj('alpha', O, " + class + ")", Vars: []string{"O"},
		}, "")
		defer c.close()
		if c.status != http.StatusOK {
			t.Fatalf("subscribe status %d: %s", c.status, c.body)
		}
		ev := c.next(t, 5*time.Second)
		var snap SnapshotEvent
		if err := json.Unmarshal([]byte(ev.data), &snap); err != nil || ev.name != "snapshot" || snap.Count != 0 {
			t.Fatalf("first event %q %s (%v), want an empty snapshot", ev.name, ev.data, err)
		}
		resp, body := postJSON(t, ts, "/v1/delta", DeltaRequest{
			Source: "alpha",
			Adds:   []string{"src_obj('alpha', prep_later_obj, " + class + ")"},
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("delta status %d: %s", resp.StatusCode, body)
		}
		ev = c.next(t, 5*time.Second)
		var d DeltaEvent
		if err := json.Unmarshal([]byte(ev.data), &d); err != nil || ev.name != "delta" {
			t.Fatalf("second event %q %s (%v), want a delta", ev.name, ev.data, err)
		}
		if len(d.Added) != 1 || d.Added[0][0] != "prep_later_obj" || d.Count != 1 {
			t.Fatalf("delta event %+v, want the added fact", d)
		}
	})
}

var laterRuns atomic.Int64

// TestPreparedQueryUnderDeltas: 8 goroutines send one text through the
// handler, with and without the answer cache, while deltas add facts on
// a constant the first delta interns. Every answer is the answer an
// unprepared query gives over one of the values the mediator published.
func TestPreparedQueryUnderDeltas(t *testing.T) {
	srv, m, _ := newServeFixture(t, Config{})
	h := srv.Handler()
	class := fmt.Sprintf("prep_race_class_%d", laterRuns.Add(1))
	q := "src_obj('alpha', O, " + class + "), src_obj(S, O, C)"
	vars := []string{"O", "S", "C"}
	body, _, err := parser.ParseQuery(q)
	if err != nil {
		t.Fatal(err)
	}
	// valid holds the unprepared answer over each published value: the
	// one before the deltas and the one after each.
	valid := map[string]bool{}
	record := func() {
		res, err := m.Materialize()
		if err != nil {
			t.Fatal(err)
		}
		rows, _, err := res.QueryWithStats(context.Background(), body, vars)
		if err != nil {
			t.Fatal(err)
		}
		valid[fmt.Sprint(datalog.RenderRows(rows))] = true
	}
	record()
	// The text is prepared before the first delta interns its class.
	if code, out := serveJSON(t, h, "/v1/query", QueryRequest{Query: q, Vars: vars, NoCache: true}); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, out)
	}

	const deltas = 20
	done := make(chan struct{})
	answers := make(chan string, 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				code, out := serveJSON(t, h, "/v1/query", QueryRequest{Query: q, Vars: vars, NoCache: g%2 == 0})
				var resp QueryResponse
				if err := json.Unmarshal(out, &resp); code != http.StatusOK || err != nil {
					t.Errorf("status %d (%v): %s", code, err, out)
					return
				}
				select {
				case answers <- fmt.Sprint(resp.Rows):
				case <-done:
					return
				}
			}
		}(g)
	}
	seen := map[string]int{}
	var collect sync.WaitGroup
	collect.Add(1)
	go func() {
		defer collect.Done()
		for a := range answers {
			seen[a]++
		}
	}()
	for k := 0; k < deltas; k++ {
		code, out := serveJSON(t, h, "/v1/delta", DeltaRequest{
			Source: "alpha",
			Adds:   []string{fmt.Sprintf("src_obj('alpha', prep_race_obj_%d, %s)", k, class)},
		})
		if code != http.StatusOK {
			t.Fatalf("delta %d: status %d: %s", k, code, out)
		}
		record()
		time.Sleep(2 * time.Millisecond)
	}
	close(done)
	wg.Wait()
	close(answers)
	collect.Wait()
	if len(seen) < 2 {
		t.Errorf("the readers saw %d distinct answers across %d deltas", len(seen), deltas)
	}
	for a, n := range seen {
		if !valid[a] {
			t.Errorf("%d answers match no published value: %.200s", n, a)
		}
	}
	code, out := serveJSON(t, h, "/v1/query", QueryRequest{Query: q, Vars: vars, NoCache: true})
	var last QueryResponse
	if err := json.Unmarshal(out, &last); code != http.StatusOK || err != nil {
		t.Fatalf("status %d (%v): %s", code, err, out)
	}
	if last.Count != deltas {
		t.Fatalf("final answer: %d rows, want %d", last.Count, deltas)
	}
}
