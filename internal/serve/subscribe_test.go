package serve

// End-to-end tests for the continuous-query surface: an SSE client
// subscribes, receives the snapshot, then receives pushed answer
// deltas when the materialization changes — without ever polling.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"modelmed/internal/gcm"
	"modelmed/internal/mediator"
	"modelmed/internal/sources"
	"modelmed/internal/term"
)

// sseEvent is one parsed server-sent event (or a comment line, with
// name "comment").
type sseEvent struct {
	name string
	data string
}

// sseClient consumes one /v1/subscribe stream in the background.
type sseClient struct {
	resp   *http.Response
	events chan sseEvent
	status int
	body   string
}

// openSSE posts a SubscribeRequest and, on 200, starts parsing the
// event stream into c.events. On any other status the body is
// captured instead.
func openSSE(t *testing.T, ts *httptest.Server, req SubscribeRequest, apiKey string) *sseClient {
	t.Helper()
	b, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/subscribe", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		hr.Header.Set("X-API-Key", apiKey)
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	c := &sseClient{resp: resp, status: resp.StatusCode, events: make(chan sseEvent, 64)}
	if resp.StatusCode != http.StatusOK {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(resp.Body)
		resp.Body.Close()
		c.body = buf.String()
		close(c.events)
		return c
	}
	go func() {
		defer close(c.events)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		var ev sseEvent
		for sc.Scan() {
			line := sc.Text()
			switch {
			case line == "":
				if ev.name != "" || ev.data != "" {
					c.events <- ev
				}
				ev = sseEvent{}
			case strings.HasPrefix(line, "event: "):
				ev.name = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				ev.data = strings.TrimPrefix(line, "data: ")
			case strings.HasPrefix(line, ":"):
				c.events <- sseEvent{name: "comment", data: strings.TrimSpace(strings.TrimPrefix(line, ":"))}
			}
		}
	}()
	return c
}

func (c *sseClient) close() {
	if c.resp != nil && c.status == http.StatusOK {
		c.resp.Body.Close()
	}
}

// next returns the next non-comment event, failing after the timeout.
func (c *sseClient) next(t *testing.T, timeout time.Duration) sseEvent {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-c.events:
			if !ok {
				t.Fatal("SSE stream closed while waiting for an event")
			}
			if ev.name == "comment" {
				continue
			}
			return ev
		case <-deadline:
			t.Fatalf("no SSE event within %v", timeout)
		}
	}
}

// nextComment returns the next comment line, failing after the timeout.
func (c *sseClient) nextComment(t *testing.T, timeout time.Duration) string {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-c.events:
			if !ok {
				t.Fatal("SSE stream closed while waiting for a comment")
			}
			if ev.name == "comment" {
				return ev.data
			}
		case <-deadline:
			t.Fatalf("no SSE comment within %v", timeout)
		}
	}
}

// closed reports whether the stream ends within the timeout.
func (c *sseClient) closed(t *testing.T, timeout time.Duration) bool {
	t.Helper()
	deadline := time.After(timeout)
	for {
		select {
		case _, ok := <-c.events:
			if !ok {
				return true
			}
		case <-deadline:
			return false
		}
	}
}

// TestSubscribePushesAnswerDeltas is the tentpole acceptance test at
// the serve layer: a standing query receives its snapshot, then a
// pushed `delta` event after a source delta — the client never polls.
func TestSubscribePushesAnswerDeltas(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginDrain()

	c := openSSE(t, ts, SubscribeRequest{
		Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"},
	}, "")
	defer c.close()
	if c.status != http.StatusOK {
		t.Fatalf("subscribe status %d: %s", c.status, c.body)
	}
	ev := c.next(t, 5*time.Second)
	if ev.name != "snapshot" {
		t.Fatalf("first event = %q, want snapshot", ev.name)
	}
	var snap SnapshotEvent
	if err := json.Unmarshal([]byte(ev.data), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Count == 0 || snap.Seq != 1 {
		t.Fatalf("snapshot: %+v", snap)
	}

	// A source delta arrives over /v1/delta; the subscriber must be
	// notified with exactly the answer change.
	resp, body := postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "alpha",
		Adds:   []string{"src_obj('alpha', sub_obj_1, record)"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	ev = c.next(t, 5*time.Second)
	if ev.name != "delta" {
		t.Fatalf("second event = %q (%s), want delta", ev.name, ev.data)
	}
	var d DeltaEvent
	if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 1 || len(d.Removed) != 0 || d.Count != snap.Count+1 || d.Seq != 2 {
		t.Fatalf("delta event: %+v", d)
	}
	if d.Added[0][0] != "sub_obj_1" {
		t.Fatalf("added row = %v", d.Added[0])
	}

	// Removing it pushes the inverse delta.
	resp, body = postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "alpha",
		Dels:   []string{"src_obj('alpha', sub_obj_1, record)"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	ev = c.next(t, 5*time.Second)
	if ev.name != "delta" {
		t.Fatalf("third event = %q, want delta", ev.name)
	}
	d = DeltaEvent{} // fields omitted from the JSON must not linger
	if err := json.Unmarshal([]byte(ev.data), &d); err != nil {
		t.Fatal(err)
	}
	if len(d.Added) != 0 || len(d.Removed) != 1 || d.Count != snap.Count {
		t.Fatalf("removal delta event: %+v", d)
	}
	if got := srv.Counters().Get("serve.sub_deltas"); got < 2 {
		t.Fatalf("serve.sub_deltas = %d, want >= 2", got)
	}
}

// TestSubscribeUnchangedAnswerSendsNothing: a delta to another source
// wakes the subscriber, but an unchanged answer set emits no event.
func TestSubscribeUnchangedAnswerSendsNothing(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginDrain()

	c := openSSE(t, ts, SubscribeRequest{
		Query: "src_obj('alpha', O, C)", Vars: []string{"O", "C"}, HeartbeatMs: 100,
	}, "")
	defer c.close()
	if ev := c.next(t, 5*time.Second); ev.name != "snapshot" {
		t.Fatalf("first event = %q", ev.name)
	}
	resp, body := postJSON(t, ts, "/v1/delta", DeltaRequest{
		Source: "beta",
		Adds:   []string{"src_obj('beta', other_obj, record)"},
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta status %d: %s", resp.StatusCode, body)
	}
	// Heartbeats keep flowing; no snapshot/delta event may arrive.
	sawHB := false
	deadline := time.After(2 * time.Second)
	for !sawHB {
		select {
		case ev, ok := <-c.events:
			if !ok {
				t.Fatal("stream closed")
			}
			if ev.name == "comment" {
				sawHB = ev.data == "hb"
				continue
			}
			t.Fatalf("unexpected event %q (%s) for an unchanged answer", ev.name, ev.data)
		case <-deadline:
			t.Fatal("no heartbeat within 2s")
		}
	}
}

// TestSubscribeTenantCap: the per-tenant cap rejects the excess
// subscription with 429 while another tenant still gets through.
func TestSubscribeTenantCap(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{
		MaxSubsPerTenant: 1,
		TenantWeights:    map[string]int{"acme": 1, "umbrella": 1},
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginDrain()

	req := SubscribeRequest{Query: "covered(C)", Vars: []string{"C"}}
	first := openSSE(t, ts, req, "acme")
	defer first.close()
	if first.status != http.StatusOK {
		t.Fatalf("first subscribe: %d %s", first.status, first.body)
	}
	first.next(t, 5*time.Second) // wait for snapshot => registered

	second := openSSE(t, ts, req, "acme")
	defer second.close()
	if second.status != http.StatusTooManyRequests {
		t.Fatalf("second subscribe for same tenant: %d, want 429", second.status)
	}
	if second.resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	other := openSSE(t, ts, req, "umbrella")
	defer other.close()
	if other.status != http.StatusOK {
		t.Fatalf("other tenant subscribe: %d %s", other.status, other.body)
	}
	if got := srv.Counters().Get("serve.subscribe_rejected"); got != 1 {
		t.Fatalf("serve.subscribe_rejected = %d", got)
	}

	// Closing the first stream frees the slot.
	first.close()
	waitFor(t, 5*time.Second, func() bool { return srv.subscriberCount() == 1 })
	third := openSSE(t, ts, req, "acme")
	defer third.close()
	if third.status != http.StatusOK {
		t.Fatalf("subscribe after slot freed: %d %s", third.status, third.body)
	}
}

// TestSubscribeDrainClosesStreams: BeginDrain ends every open stream
// so graceful shutdown is not blocked, and accounting stays balanced.
func TestSubscribeDrainClosesStreams(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var clients []*sseClient
	for i := 0; i < 3; i++ {
		c := openSSE(t, ts, SubscribeRequest{Query: "covered(C)", Vars: []string{"C"}}, "")
		defer c.close()
		if c.status != http.StatusOK {
			t.Fatalf("subscribe %d: %d", i, c.status)
		}
		c.next(t, 5*time.Second)
		clients = append(clients, c)
	}
	srv.BeginDrain()
	srv.BeginDrain() // idempotent
	for i, c := range clients {
		if !c.closed(t, 5*time.Second) {
			t.Fatalf("stream %d still open after BeginDrain", i)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		return srv.subscriberCount() == 0 && srv.Started() == srv.Finished()
	})
}

// TestSubscribeBadRequests: method and body validation.
func TestSubscribeBadRequests(t *testing.T) {
	srv, _, _ := newServeFixture(t, Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginDrain()

	resp, err := http.Get(ts.URL + "/v1/subscribe")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
	for _, q := range []string{"", "covered(C"} {
		c := openSSE(t, ts, SubscribeRequest{Query: q}, "")
		c.close()
		if c.status != http.StatusBadRequest {
			t.Fatalf("query %q: status %d, want 400", q, c.status)
		}
	}
}

// waitFor polls cond until true or the deadline fails the test.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not met before deadline")
}

// TestFeedDeliversEveryDeltaToEverySubscriber drives the wrapper-feed
// route (StartFeeds reporting into ApplyReport, no /v1/delta): 16
// subscribers on SYNAPSE's objects, then 10 rounds that alternately add
// an object on the live wrapper and remove it again. Every subscriber
// must receive every round's delta, exactly that change, in sequence
// order.
func TestFeedDeliversEveryDeltaToEverySubscriber(t *testing.T) {
	const subscribers, rounds = 16, 10
	med := mediator.New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(2026, 20, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if err := med.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := med.Materialize(); err != nil {
		t.Fatal(err)
	}
	srv := New(med, Config{})
	feeds := med.StartFeeds(context.Background(), mediator.FeedOptions{
		OnReport: func(rep *mediator.DeltaReport) { srv.ApplyReport(rep) },
	})
	defer feeds.Stop()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.BeginDrain()

	subs := make([]*sseClient, subscribers)
	seqs := make([]int, subscribers)
	for i := range subs {
		c := openSSE(t, ts, SubscribeRequest{
			Query: "src_obj('SYNAPSE', O, C)", Vars: []string{"O", "C"},
		}, "")
		defer c.close()
		if c.status != http.StatusOK {
			t.Fatalf("subscribe status %d: %s", c.status, c.body)
		}
		ev := c.next(t, 10*time.Second)
		var snap SnapshotEvent
		if ev.name != "snapshot" || json.Unmarshal([]byte(ev.data), &snap) != nil {
			t.Fatalf("subscriber %d: first event %s %s, want snapshot", i, ev.name, ev.data)
		}
		subs[i], seqs[i] = c, snap.Seq
	}

	syn := ws[0]
	for r := 0; r < rounds; r++ {
		id := fmt.Sprintf("feed_obj_%d", r/2)
		add := r%2 == 0
		syn.Mutate(func(m *gcm.Model) {
			if add {
				m.AddObject(gcm.Object{ID: term.Atom(id), Class: "spine_measurement",
					Values: map[string][]term.Term{"location": {term.Atom("dendrite")}}})
				return
			}
			for i, o := range m.Objects {
				if o.ID.Equal(term.Atom(id)) {
					m.Objects = append(m.Objects[:i], m.Objects[i+1:]...)
					return
				}
			}
		})
		want := [][]string{{id, "spine_measurement"}}
		for i, c := range subs {
			ev := c.next(t, 10*time.Second)
			var d DeltaEvent
			if ev.name != "delta" || json.Unmarshal([]byte(ev.data), &d) != nil {
				t.Fatalf("round %d subscriber %d: event %s %s, want delta", r, i, ev.name, ev.data)
			}
			changed, other := d.Added, d.Removed
			if !add {
				changed, other = d.Removed, d.Added
			}
			if d.Seq != seqs[i]+1 || !reflect.DeepEqual(changed, want) || len(other) != 0 {
				t.Fatalf("round %d subscriber %d: delta %+v after seq %d, want %v (add=%v)",
					r, i, d, seqs[i], want, add)
			}
			seqs[i] = d.Seq
		}
	}
	if len(feeds.Sources) != len(ws) {
		t.Fatalf("feeds cover %v of %d sources", feeds.Sources, len(ws))
	}
}
