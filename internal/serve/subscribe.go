package serve

// Continuous queries over SSE: POST /v1/subscribe registers a standing
// query; the server pushes the initial answer set as a `snapshot`
// event and, whenever the mediator publishes a new value (a streamed
// source batch, a delta or sync through the handlers or made on the
// mediator directly, a program change), re-evaluates and pushes the
// difference against the subscriber's last-sent answer set as a
// `delta` event. A subscriber loads the mediator's Changed channel
// before it evaluates and then waits on it, so no publish slips
// between the two, and any number of publishes while it evaluates
// collapse into one wakeup: a slow subscriber skips intermediate
// states and diffs straight to the newest one — never an unbounded
// buffer. Large diffs degrade to a fresh `snapshot` event. Heartbeat
// comments keep intermediaries from reaping idle connections.
//
// Subscriptions ride the same per-tenant machinery as queries: each
// re-evaluation passes through the admission gate and the tenant's
// cache partition, and Config.MaxSubsPerTenant caps how many standing
// queries one tenant may hold open (429 beyond it).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
)

// SubscribeRequest is the POST /v1/subscribe body.
type SubscribeRequest struct {
	Query string   `json:"query"`
	Vars  []string `json:"vars,omitempty"`
	// HeartbeatMs overrides the heartbeat interval (default 15s,
	// floor 50ms) — mostly a test hook.
	HeartbeatMs int `json:"heartbeat_ms,omitempty"`
}

// SnapshotEvent is the data payload of an SSE `snapshot` event: the
// full current answer set.
type SnapshotEvent struct {
	Vars  []string   `json:"vars"`
	Rows  [][]string `json:"rows"`
	Count int        `json:"count"`
	Seq   int        `json:"seq"`
}

// DeltaEvent is the data payload of an SSE `delta` event: the change
// against the subscriber's last-sent answer set.
type DeltaEvent struct {
	Added   [][]string `json:"added,omitempty"`
	Removed [][]string `json:"removed,omitempty"`
	Count   int        `json:"count"`
	Seq     int        `json:"seq"`
}

// addSubscriber counts an open subscription under its tenant's cap.
func (s *Server) addSubscriber(tenant string) error {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	if n := s.subTenants[tenant]; n >= s.cfg.maxSubsPerTenant() {
		return fmt.Errorf("tenant %s: subscription cap %d reached", tenant, s.cfg.maxSubsPerTenant())
	}
	s.subTenants[tenant]++
	return nil
}

func (s *Server) removeSubscriber(tenant string) {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	s.subTenants[tenant]--
}

// subscriberCount returns the number of open subscriptions.
func (s *Server) subscriberCount() int {
	s.subMu.Lock()
	defer s.subMu.Unlock()
	var n int
	for _, c := range s.subTenants {
		n += c
	}
	return n
}

// BeginDrain tells every open subscription to finish its stream and
// return, so http.Server.Shutdown is not held hostage by long-lived
// SSE connections. Call before Shutdown.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tenant := s.tenantOf(r)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req SubscribeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.ctr.Add("serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.ctr.Add("serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, errors.New("empty query"))
		return
	}
	p, err := s.med.Prepare(req.Query, req.Vars)
	if err != nil {
		s.ctr.Add("serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		s.writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported"))
		return
	}
	if err := s.addSubscriber(tenant); err != nil {
		s.ctr.Add("serve.subscribe_rejected", 1)
		s.ctr.Add("serve.tenant."+tenant+".subscribe_rejected", 1)
		w.Header().Set("Retry-After", "1")
		s.writeError(w, http.StatusTooManyRequests, err)
		return
	}
	defer s.removeSubscriber(tenant)
	s.ctr.Add("serve.subscribe_opened", 1)
	defer s.ctr.Add("serve.subscribe_closed", 1)

	heartbeat := 15 * time.Second
	if req.HeartbeatMs > 0 {
		heartbeat = time.Duration(req.HeartbeatMs) * time.Millisecond
		if heartbeat < 50*time.Millisecond {
			heartbeat = 50 * time.Millisecond
		}
	}

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	deps, global := queryDeps(p.Body, p.Aux)
	key := cacheKey(p.Body, p.Aux, req.Vars)
	evaluate := func() ([][]string, []string, error) {
		// Each re-evaluation is one bounded query through the same
		// admission gate and cache partition an ad-hoc request uses.
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
		defer cancel()
		compute := func() (*mediator.Answer, error) {
			if err := s.adm.acquire(ctx, tenant); err != nil {
				return nil, err
			}
			defer s.adm.release()
			return s.med.QueryParsed(ctx, p)
		}
		var ans *mediator.Answer
		if s.cfg.DisableCache {
			ans, err = compute()
		} else {
			ans, _, err = s.cache.do(ctx, tenant, key, deps, global, compute)
		}
		if err != nil {
			return nil, nil, err
		}
		return datalog.RenderRows(ans.Rows), ans.Vars, nil
	}

	seq := 0
	last := map[string][]string{}
	var changed <-chan struct{}
	push := func(event string, v any) bool {
		data, err := json.Marshal(v)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data); err != nil {
			return false
		}
		flusher.Flush()
		return true
	}
	// refresh loads the next wakeup, then evaluates and pushes a
	// snapshot or delta; false ends the stream (client gone or
	// evaluation hit the client's own context).
	refresh := func() bool {
		changed = s.med.Changed()
		rows, vars, err := evaluate()
		if err != nil {
			if r.Context().Err() != nil {
				return false
			}
			// Shed, budget, or timeout on one round: the subscription
			// survives; the next publish retries against the state
			// current then.
			s.ctr.Add("serve.sub_eval_errors", 1)
			return true
		}
		next := make(map[string][]string, len(rows))
		for _, row := range rows {
			next[strings.Join(row, "\x1f")] = row
		}
		var added, removed [][]string
		for k, row := range next {
			if _, ok := last[k]; !ok {
				added = append(added, row)
			}
		}
		for k, row := range last {
			if _, ok := next[k]; !ok {
				removed = append(removed, row)
			}
		}
		if seq > 0 && len(added) == 0 && len(removed) == 0 {
			return true // woken but unchanged: nothing to send
		}
		seq++
		ok := false
		if seq == 1 || len(added)+len(removed) > len(rows)/2+8 {
			// First send, or a diff so large a fresh snapshot is
			// cheaper/simpler for the client to reconcile.
			s.ctr.Add("serve.sub_snapshots", 1)
			ok = push("snapshot", &SnapshotEvent{Vars: vars, Rows: rows, Count: len(rows), Seq: seq})
		} else {
			s.ctr.Add("serve.sub_deltas", 1)
			ok = push("delta", &DeltaEvent{Added: added, Removed: removed, Count: len(rows), Seq: seq})
		}
		last = next
		return ok
	}
	if !refresh() {
		s.logRequest(r, tenant, http.StatusOK, start, seq, outcomeComputed)
		return
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		select {
		case <-r.Context().Done():
			s.logRequest(r, tenant, http.StatusOK, start, seq, outcomeComputed)
			return
		case <-s.drain:
			// Graceful shutdown: close the stream so Shutdown can finish;
			// clients reconnect against the next process.
			_, _ = fmt.Fprint(w, ": drain\n\n")
			flusher.Flush()
			s.logRequest(r, tenant, http.StatusOK, start, seq, outcomeComputed)
			return
		case <-changed:
			if !refresh() {
				s.logRequest(r, tenant, http.StatusOK, start, seq, outcomeComputed)
				return
			}
		case <-ticker.C:
			s.ctr.Add("serve.sub_heartbeats", 1)
			if _, err := fmt.Fprint(w, ": hb\n\n"); err != nil {
				s.logRequest(r, tenant, http.StatusOK, start, seq, outcomeComputed)
				return
			}
			flusher.Flush()
		}
	}
}
