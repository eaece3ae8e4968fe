package cluster

// HTTP client for shard medd instances. Every call classifies its
// outcome for the health tracker: a transport error, a 5xx or a reply
// that does not read is a shard failure (counted by its breaker); a 4xx
// is the *request's* fault — the shard answered, so its breaker stays
// closed and the status/body are relayed to the caller. A /v1/query
// reply is read with its rows left encoded (wire.go); the other calls'
// replies are decoded.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"modelmed/internal/serve"
)

// StatusError is a shard's non-2xx reply: the shard is up and spoke
// JSON, but rejected the request. Status < 500 means the request was
// bad, not the shard.
type StatusError struct {
	Status  int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("shard status %d: %s", e.Status, e.Message)
}

// ShardDown reports whether err means the shard itself failed (and the
// breaker should count it), as opposed to rejecting a bad request.
func ShardDown(err error) bool {
	if err == nil {
		return false
	}
	var se *StatusError
	if errors.As(err, &se) {
		return se.Status >= 500
	}
	return true // transport / decode failure
}

// shardFault reports whether err is evidence against the shard for
// breaker purposes. A sub-request that died because the caller's own
// request context was canceled or timed out says nothing about shard
// health — counting it would let an impatient (or disconnecting)
// client trip the breaker and black out the shard for every other
// tenant until the cooldown.
func shardFault(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		return false
	}
	return ShardDown(err)
}

// do issues one request, with body (when not nil) as JSON, and returns
// a 2xx reply, whose body the caller closes. Non-2xx replies become
// *StatusError carrying the server's error message.
func (m *Manager) do(ctx context.Context, method, url, apiKey string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("cluster: encode: %w", err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := m.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: %w", url, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		msg := http.StatusText(resp.StatusCode)
		var e struct {
			Error string `json:"error"`
		}
		if b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16)); len(b) > 0 {
			if json.Unmarshal(b, &e) == nil && e.Error != "" {
				msg = e.Error
			}
		}
		return nil, &StatusError{Status: resp.StatusCode, Message: msg}
	}
	return resp, nil
}

// doJSON issues one request and decodes a JSON reply into out.
func (m *Manager) doJSON(ctx context.Context, method, url, apiKey string, body, out any) error {
	resp, err := m.do(ctx, method, url, apiKey, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("cluster: %s: decode: %w", url, err)
	}
	return nil
}

// healthz probes one shard and returns its registered sources.
func (m *Manager) healthz(ctx context.Context, sh *Shard) ([]string, error) {
	var resp struct {
		Sources []string `json:"sources"`
	}
	if err := m.doJSON(ctx, http.MethodGet, sh.URL+"/healthz", "", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Sources, nil
}

// Query posts a query request to one shard, verbatim, and reads the
// reply with its rows left encoded. The caller releases the answer once
// it has written them; dropping it unreleased is safe.
func (m *Manager) Query(ctx context.Context, sh *Shard, apiKey string, req *serve.QueryRequest) (*ShardAnswer, error) {
	url := sh.URL + "/v1/query"
	resp, err := m.do(ctx, http.MethodPost, url, apiKey, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	a, err := readShardAnswer(resp.Body, resp.ContentLength)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s: decode: %w", url, err)
	}
	return a, nil
}

// Delta posts a source delta to one shard.
func (m *Manager) Delta(ctx context.Context, sh *Shard, apiKey string, req *serve.DeltaRequest) (*serve.DeltaResponse, error) {
	var resp serve.DeltaResponse
	if err := m.doJSON(ctx, http.MethodPost, sh.URL+"/v1/delta", apiKey, req, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// Sync triggers a full source refresh on one shard and returns its
// per-source delta reports.
func (m *Manager) Sync(ctx context.Context, sh *Shard, apiKey string) ([]*serve.DeltaResponse, error) {
	var resp struct {
		Refreshed []*serve.DeltaResponse `json:"refreshed"`
	}
	if err := m.doJSON(ctx, http.MethodPost, sh.URL+"/v1/sync", apiKey, nil, &resp); err != nil {
		return nil, err
	}
	return resp.Refreshed, nil
}

// Facts fetches one shard's per-source fact dump.
func (m *Manager) Facts(ctx context.Context, sh *Shard) (*serve.FactsResponse, error) {
	var resp serve.FactsResponse
	if err := m.doJSON(ctx, http.MethodGet, sh.URL+"/v1/facts", "", nil, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}
