// Package load is a closed-loop HTTP load generator for the mediator
// query service: C workers each keep exactly one request in flight
// against POST /v1/query until the duration elapses, and the merged
// per-request latencies yield throughput, quantiles and shed rate.
// Closed-loop load measures the service's capacity honestly — an open
// loop would pile unbounded queueing delay onto every sample once the
// offered rate passes capacity.
//
// cmd/loadgen drives this package for an operator's ad-hoc runs, and
// the serve tests drive it to put a server under load.
package load

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"
)

// Request mirrors the service's query request body (kept local so the
// generator can target any medd without importing the server).
type Request struct {
	Query     string   `json:"query"`
	Vars      []string `json:"vars,omitempty"`
	NoCache   bool     `json:"no_cache,omitempty"`
	TimeoutMs int      `json:"timeout_ms,omitempty"`
}

// Config describes one closed-loop run.
type Config struct {
	// BaseURL of the service, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Requests are issued round-robin per worker.
	Requests []Request
	// Concurrency is the number of closed-loop workers.
	Concurrency int
	// Duration of the run.
	Duration time.Duration
	// Client overrides the HTTP client (nil = a fresh one without
	// keep-alive reuse limits).
	Client *http.Client
	// Ctx optionally bounds the run externally.
	Ctx context.Context
	// APIKey is sent as the X-API-Key header on every request,
	// identifying the run's tenant to the service (empty = none, i.e.
	// the default tenant).
	APIKey string
}

// Stats is the merged outcome of one run.
type Stats struct {
	Concurrency int
	DurationMs  int64
	Requests    int64
	OK          int64
	CacheHits   int64
	Shed        int64   // 503
	Timeouts    int64   // 504
	Budget      int64   // 422, evaluation budget exceeded
	ClientErrs  int64   // transport-level failures
	OtherHTTP   int64   // any remaining status
	Throughput  float64 // completed (OK) per second
	ShedRate    float64 // shed / issued
	P50Ms       float64
	P90Ms       float64
	P99Ms       float64
	MaxMs       float64
}

type workerResult struct {
	stats Stats
	lats  []time.Duration
}

// Run drives the closed loop and merges the results.
func Run(cfg Config) (Stats, error) {
	if cfg.Concurrency <= 0 {
		cfg.Concurrency = 1
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if len(cfg.Requests) == 0 {
		return Stats{}, errors.New("load: no requests configured")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{}
	}
	ctx := cfg.Ctx
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, cancel := context.WithTimeout(ctx, cfg.Duration)
	defer cancel()

	bodies := make([][]byte, len(cfg.Requests))
	for i, r := range cfg.Requests {
		b, err := json.Marshal(r)
		if err != nil {
			return Stats{}, err
		}
		bodies[i] = b
	}
	url := cfg.BaseURL + "/v1/query"

	results := make([]workerResult, cfg.Concurrency)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < cfg.Concurrency; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := &results[w]
			for i := w; ; i++ {
				select {
				case <-ctx.Done():
					return
				default:
				}
				body := bodies[i%len(bodies)]
				t0 := time.Now()
				status, hit, err := oneRequest(ctx, client, url, cfg.APIKey, body)
				lat := time.Since(t0)
				res.stats.Requests++
				switch {
				case err != nil:
					// A request cut short by the run deadline is not a
					// service failure.
					if ctx.Err() != nil {
						res.stats.Requests--
						return
					}
					res.stats.ClientErrs++
				case status == http.StatusOK:
					res.stats.OK++
					res.lats = append(res.lats, lat)
					if hit {
						res.stats.CacheHits++
					}
				case status == http.StatusServiceUnavailable:
					res.stats.Shed++
				case status == http.StatusGatewayTimeout:
					res.stats.Timeouts++
				case status == http.StatusUnprocessableEntity:
					res.stats.Budget++
				default:
					res.stats.OtherHTTP++
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	out := Stats{Concurrency: cfg.Concurrency, DurationMs: elapsed.Milliseconds()}
	var lats []time.Duration
	for i := range results {
		s := results[i].stats
		out.Requests += s.Requests
		out.OK += s.OK
		out.CacheHits += s.CacheHits
		out.Shed += s.Shed
		out.Timeouts += s.Timeouts
		out.Budget += s.Budget
		out.ClientErrs += s.ClientErrs
		out.OtherHTTP += s.OtherHTTP
		lats = append(lats, results[i].lats...)
	}
	if secs := elapsed.Seconds(); secs > 0 {
		out.Throughput = float64(out.OK) / secs
	}
	if out.Requests > 0 {
		out.ShedRate = float64(out.Shed) / float64(out.Requests)
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		out.P50Ms = ms(quantile(lats, 0.50))
		out.P90Ms = ms(quantile(lats, 0.90))
		out.P99Ms = ms(quantile(lats, 0.99))
		out.MaxMs = ms(lats[len(lats)-1])
	}
	return out, nil
}

// oneRequest issues one query and reports (status, cache-hit, err).
func oneRequest(ctx context.Context, client *http.Client, url, apiKey string, body []byte) (int, bool, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if apiKey != "" {
		req.Header.Set("X-API-Key", apiKey)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	var out struct {
		Cached bool `json:"cached"`
	}
	// Drain the body fully so the connection is reusable; the decode
	// error is irrelevant for non-200 replies.
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, out.Cached, nil
}

// quantile picks the q-th latency from a sorted slice.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// String renders the stats as one report line.
func (s Stats) String() string {
	return fmt.Sprintf("c=%d: %d req in %dms, %.0f ok/s, hits %d, shed %d (%.1f%%), timeouts %d, budget %d, errs %d, p50 %.2fms p90 %.2fms p99 %.2fms",
		s.Concurrency, s.Requests, s.DurationMs, s.Throughput, s.CacheHits,
		s.Shed, s.ShedRate*100, s.Timeouts, s.Budget, s.ClientErrs, s.P50Ms, s.P90Ms, s.P99Ms)
}
