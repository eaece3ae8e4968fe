// Package cluster is the horizontal scale-out layer: a sharded
// mediator cluster. Registered sources are partitioned across N shard
// mediators (each an ordinary medd serving the subset of sources it
// owns; the domain map and views are small and replicated to every
// shard), and a thin router in front accepts the same /v1/query,
// /v1/delta and /v1/sync API, decomposes each query into per-shard
// subplans, executes them concurrently over HTTP, and merges the
// per-shard answer sets.
//
// The decomposition (decompose.go) classifies every query by how its
// answer relates to the per-shard answers:
//
//   - proxy: every source fact the query reads lives on one shard (or
//     the query reads only replicated knowledge) — forward verbatim.
//   - scatter: the union of per-shard answers is provably the global
//     answer — fan out, union, dedup.
//   - gather: cross-shard joins, aggregates or negation over source
//     facts make per-shard answers insufficient — pull each shard's
//     fact dump (GET /v1/facts) and evaluate at the router over the
//     replicated static knowledge.
//
// Delta propagation is precise: a source delta posted to the router
// goes to the owning shard only, and on success invalidates exactly
// the router-level answer-cache entries depending on that source plus
// that shard's cached fact dump — the same DeltaReport-shaped
// invalidation contract the single-node service uses.
//
// Degraded shards degrade gracefully, never silently: scatter and
// non-aggregated gather answers over a down shard are flagged partial
// with per-shard reports (sound by monotonicity — every returned row
// is a true answer); aggregated gathers refuse (a partial sum is a
// wrong answer, not a partial one); proxies to a down shard fail with
// the shard's report attached.
package cluster

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"modelmed/internal/breaker"
)

// ShardConfig names one shard and its base URL.
type ShardConfig struct {
	ID  string
	URL string
}

// ParseShardSpec parses the -shards flag syntax: comma-separated
// entries, each either a bare base URL (IDs default to shard0,
// shard1, ...) or ID=URL.
func ParseShardSpec(spec string) ([]ShardConfig, error) {
	var out []ShardConfig
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		sc := ShardConfig{ID: fmt.Sprintf("shard%d", len(out)), URL: part}
		if id, url, found := strings.Cut(part, "="); found && !strings.Contains(id, "/") {
			id = strings.TrimSpace(id)
			if id == "" {
				return nil, fmt.Errorf("shards: empty id in %q", part)
			}
			sc.ID, sc.URL = id, strings.TrimSpace(url)
		}
		if !strings.HasPrefix(sc.URL, "http://") && !strings.HasPrefix(sc.URL, "https://") {
			return nil, fmt.Errorf("shards: %q: want http(s) base URL", part)
		}
		sc.URL = strings.TrimRight(sc.URL, "/")
		if seen[sc.ID] {
			return nil, fmt.Errorf("shards: duplicate id %q", sc.ID)
		}
		seen[sc.ID] = true
		out = append(out, sc)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("shards: no shards configured")
	}
	return out, nil
}

// Shard is one mediator shard as the manager sees it: its address, the
// sources it owns (discovered from /healthz), and its circuit breaker.
type Shard struct {
	ID  string
	URL string

	br *breaker.Breaker

	mu      sync.Mutex
	sources []string
}

// Sources returns the shard's discovered source names.
func (sh *Shard) Sources() []string {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return append([]string(nil), sh.sources...)
}

// ShardReport is one shard's outcome attached to a router response —
// the cluster-level analogue of mediator.SourceReport.
type ShardReport struct {
	ID      string   `json:"shard"`
	Sources []string `json:"sources,omitempty"`
	// Status is "ok", "down" (skipped: breaker open) or "failed" (this
	// request's call to the shard failed).
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Rows   int    `json:"rows,omitempty"`
}

// Manager owns the shard set: source->shard assignment (discovered
// from each shard's /healthz), one circuit breaker per shard, and the
// shard HTTP client.
type Manager struct {
	client *http.Client

	mu       sync.Mutex
	shards   []*Shard // stable configuration order
	bySource map[string]*Shard
}

// newManager builds a manager over the configured shards. Call
// Discover to learn the source assignment before routing.
func newManager(shards []ShardConfig, br breaker.Config, client *http.Client) (*Manager, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("cluster: no shards configured")
	}
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	m := &Manager{client: client, bySource: map[string]*Shard{}}
	seen := map[string]bool{}
	for _, sc := range shards {
		if seen[sc.ID] {
			return nil, fmt.Errorf("cluster: duplicate shard id %q", sc.ID)
		}
		seen[sc.ID] = true
		m.shards = append(m.shards, &Shard{ID: sc.ID, URL: strings.TrimRight(sc.URL, "/"), br: breaker.New(br)})
	}
	return m, nil
}

// Shards returns the shards in configuration order.
func (m *Manager) Shards() []*Shard {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]*Shard(nil), m.shards...)
}

// Owner returns the shard owning the named source, if discovered.
func (m *Manager) Owner(source string) (*Shard, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	sh, ok := m.bySource[source]
	return sh, ok
}

// Discover probes every shard's /healthz and rebuilds the
// source->shard assignment. A shard that cannot be reached keeps its
// previous source list (it may be restarting) and is marked failed;
// reaching it again refreshes its list. Two shards claiming the same
// source is a deployment error.
func (m *Manager) Discover(ctx context.Context) error {
	shards := m.Shards()
	type probe struct {
		sources []string
		err     error
	}
	probes := make([]probe, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			probes[i].sources, probes[i].err = m.healthz(ctx, sh)
		}(i, sh)
	}
	wg.Wait()
	for i, sh := range shards {
		if probes[i].err != nil {
			sh.br.Failure(probes[i].err)
			continue
		}
		sh.br.Success()
		sh.mu.Lock()
		sh.sources = probes[i].sources
		sh.mu.Unlock()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	bySource := map[string]*Shard{}
	for _, sh := range m.shards {
		for _, src := range sh.Sources() {
			if other, dup := bySource[src]; dup && other != sh {
				return fmt.Errorf("cluster: source %s claimed by shards %s and %s", src, other.ID, sh.ID)
			}
			bySource[src] = sh
		}
	}
	m.bySource = bySource
	return nil
}

// Sources returns every discovered source name, sorted.
func (m *Manager) Sources() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.bySource))
	for s := range m.bySource {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Report renders the shard's current health as a ShardReport: "down"
// from the failure that trips its breaker until the next success.
func (m *Manager) Report(sh *Shard) ShardReport {
	r := ShardReport{ID: sh.ID, Sources: sh.Sources(), Status: "ok"}
	if tripped, err := sh.br.Tripped(); tripped {
		r.Status = "down"
		if err != nil {
			r.Error = err.Error()
		}
	}
	return r
}
