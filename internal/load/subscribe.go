package load

// SSE subscription client for POST /v1/subscribe: opens one standing
// query against a live medd and delivers the pushed `snapshot` and
// `delta` events (and heartbeat comments) on a channel, stamping each
// with its local arrival time so callers can measure
// change-to-notification latency. cmd/loadgen's -subscribe mode and
// the benchmark spine's live_update workload both ride this client.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// SubscribeRequest mirrors the service's subscribe body (kept local so
// the generator can target any medd without importing the server).
type SubscribeRequest struct {
	Query       string   `json:"query"`
	Vars        []string `json:"vars,omitempty"`
	HeartbeatMs int      `json:"heartbeat_ms,omitempty"`
}

// Event is one server-sent event from a subscription stream.
type Event struct {
	// Type is "snapshot", "delta", or "comment" (heartbeats and drain
	// notices arrive as comments).
	Type string
	// Data is the raw JSON payload (empty for comments, which carry
	// their text here instead).
	Data []byte
	// At is the local receive time.
	At time.Time
}

// AnswerDelta is the decoded payload of a "delta" event.
type AnswerDelta struct {
	Added   [][]string `json:"added"`
	Removed [][]string `json:"removed"`
	Count   int        `json:"count"`
	Seq     int        `json:"seq"`
}

// Snapshot is the decoded payload of a "snapshot" event.
type Snapshot struct {
	Vars  []string   `json:"vars"`
	Rows  [][]string `json:"rows"`
	Count int        `json:"count"`
	Seq   int        `json:"seq"`
}

// Subscription is one open SSE stream. Events closes when the server
// ends the stream, the context fires, or Close is called; Err then
// reports why (nil for a clean server-side close).
type Subscription struct {
	Events <-chan Event

	cancel context.CancelFunc
	done   chan struct{}
	err    error
}

// Close tears the stream down and waits for the reader to exit.
func (s *Subscription) Close() {
	s.cancel()
	<-s.done
}

// Err reports the reader's exit cause once Events has closed.
func (s *Subscription) Err() error {
	<-s.done
	return s.err
}

// Subscribe opens one standing query against baseURL. It returns once
// the stream is established (HTTP 200); a non-200 response is returned
// as an error carrying the status and body.
func Subscribe(ctx context.Context, client *http.Client, baseURL, apiKey string, req SubscribeRequest) (*Subscription, error) {
	if client == nil {
		client = &http.Client{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(ctx)
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/v1/subscribe", bytes.NewReader(body))
	if err != nil {
		cancel()
		return nil, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		hr.Header.Set("X-API-Key", apiKey)
	}
	resp, err := client.Do(hr)
	if err != nil {
		cancel()
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		cancel()
		return nil, fmt.Errorf("subscribe: status %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	events := make(chan Event, 256)
	sub := &Subscription{Events: events, cancel: cancel, done: make(chan struct{})}
	go func() {
		defer close(sub.done)
		defer close(events)
		defer resp.Body.Close()
		sub.err = readEvents(resp.Body, events)
		if ctx.Err() != nil {
			sub.err = nil // deliberate close, not a stream failure
		}
	}()
	return sub, nil
}

// readEvents parses the SSE wire format into Events until the stream
// ends.
func readEvents(r io.Reader, out chan<- Event) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var typ string
	var data []byte
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if typ != "" || len(data) > 0 {
				out <- Event{Type: typ, Data: data, At: time.Now()}
			}
			typ, data = "", nil
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = append(data, strings.TrimPrefix(line, "data: ")...)
		case strings.HasPrefix(line, ":"):
			out <- Event{Type: "comment", Data: []byte(strings.TrimSpace(strings.TrimPrefix(line, ":"))), At: time.Now()}
		}
	}
	return sc.Err()
}
