// Package serve is the mediator query service: an HTTP/JSON front door
// over one shared Mediator, owning the production concerns the library
// deliberately does not — admission control with per-tenant queues
// drained by deficit round-robin and per-tenant load-shedding,
// per-request deadlines propagated as contexts into the source fan-out
// and enforced inside the datalog fixpoint by cooperative gas checks,
// a normalized-query answer cache partitioned per tenant whose entries
// a lookup validates against the versions the mediator publishes,
// graceful drain, and structured request logs with per-request trace
// attachment.
//
// Tenancy: a request's tenant is its X-API-Key header when that key is
// listed in Config.TenantWeights; requests with no key, or an unlisted
// key, belong to the default tenant. Tenants get their own admission
// queue (weighted fairly against the others), their own answer-cache
// partition, and their own shed/timeout/budget counters on /metrics.
//
// Endpoints:
//
//	POST /v1/query      conceptual-level queries over the materialized base
//	POST /v1/delta      push a stated source delta (bridges ApplySourceDelta)
//	POST /v1/sync       version-diff every source (bridges SyncSources)
//	POST /v1/subscribe  standing query: answer deltas pushed over SSE
//	GET  /v1/plan       analyze a query without executing it
//	GET  /v1/trace      last span tree as JSON (tracing must be enabled)
//	GET  /healthz       liveness + registered sources
//	GET  /metrics       counters in Prometheus text format
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
	"modelmed/internal/obs"
	"modelmed/internal/parser"
	"modelmed/internal/term"
)

// Config tunes the service. Zero values mean the stated defaults.
type Config struct {
	// MaxInFlight bounds concurrently evaluating queries (default 8).
	MaxInFlight int
	// MaxQueue bounds each tenant's wait queue behind the in-flight
	// set (default 64, negative = no queue); beyond it that tenant's
	// requests are shed with 503 + Retry-After.
	MaxQueue int
	// TenantWeights names the recognized tenants (API keys) and their
	// deficit round-robin weights at the admission gate; a backlogged
	// tenant of weight w is granted w slots per rotation. Unlisted
	// keys and key-less requests share the built-in "default" tenant
	// (weight 1 unless listed).
	TenantWeights map[string]int
	// RequestTimeout caps every request's context (default 30s). A
	// request's timeout_ms may shorten it, never extend it.
	RequestTimeout time.Duration
	// CacheEntries sizes the answer cache (default 256).
	CacheEntries int
	// DisableCache turns the answer cache off entirely.
	DisableCache bool
	// MaxSubsPerTenant caps concurrently open /v1/subscribe streams
	// per tenant (default 64, negative = none allowed); beyond it the
	// tenant's subscribe requests get 429 + Retry-After.
	MaxSubsPerTenant int
	// RateLimits arms front-door token-bucket rate limiting: X-API-Key
	// -> requests/second on every /v1/* endpoint (429 + Retry-After
	// beyond). Unlisted keys share the "default" bucket when present
	// and are unlimited otherwise. Empty = no rate limiting.
	RateLimits map[string]float64
	// ShardID labels this server as one shard of a mediator cluster;
	// it is reported on /healthz so a router can verify its topology.
	// Empty outside cluster deployments.
	ShardID string
	// Log receives one structured line per request (nil = discard).
	Log *log.Logger
}

func (c Config) maxInFlight() int {
	if c.MaxInFlight <= 0 {
		return 8
	}
	return c.MaxInFlight
}

func (c Config) maxQueue() int {
	if c.MaxQueue < 0 {
		return 0
	}
	if c.MaxQueue == 0 {
		return 64
	}
	return c.MaxQueue
}

func (c Config) maxSubsPerTenant() int {
	if c.MaxSubsPerTenant < 0 {
		return 0
	}
	if c.MaxSubsPerTenant == 0 {
		return 64
	}
	return c.MaxSubsPerTenant
}

func (c Config) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 30 * time.Second
	}
	return c.RequestTimeout
}

// Server is the query service over one shared mediator.
type Server struct {
	med   *mediator.Mediator
	cfg   Config
	adm   *admission
	cache *answerCache
	rl    *RateLimiter
	ctr   *obs.Counters
	mux   *http.ServeMux
	log   *log.Logger

	// started/finished account every request across its whole handler,
	// so a drain can prove no in-flight request was dropped.
	started  atomic.Int64
	finished atomic.Int64

	// Standing-query state (subscribe.go): the per-tenant count of open
	// SSE subscriptions, plus the drain signal that tells every stream
	// to finish before Shutdown.
	subMu      sync.Mutex
	subTenants map[string]int
	drain      chan struct{}
	drainOnce  sync.Once
}

// New builds a Server over the mediator.
func New(med *mediator.Mediator, cfg Config) *Server {
	ctr := obs.NewCounters()
	s := &Server{
		med:        med,
		cfg:        cfg,
		adm:        newAdmission(cfg.maxInFlight(), cfg.maxQueue(), cfg.TenantWeights),
		cache:      newAnswerCache(cfg.CacheEntries, med.Stamp, ctr),
		rl:         NewRateLimiter(cfg.RateLimits),
		ctr:        ctr,
		log:        cfg.Log,
		subTenants: map[string]int{},
		drain:      make(chan struct{}),
	}
	if s.log == nil {
		s.log = log.New(io.Discard, "", 0)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", s.handleQuery)
	mux.HandleFunc("/v1/delta", s.handleDelta)
	mux.HandleFunc("/v1/sync", s.handleSync)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/plan", s.handlePlan)
	mux.HandleFunc("/v1/trace", s.handleTrace)
	mux.HandleFunc("/v1/facts", s.handleFacts)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux = mux
	return s
}

// Handler returns the HTTP handler (request accounting and the
// front-door rate limiter wrap the mux).
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.started.Add(1)
		defer s.finished.Add(1)
		s.ctr.Add("serve.requests", 1)
		// Rate limiting guards the API surface only; health and metrics
		// stay reachable from probes regardless of tenant abuse.
		if strings.HasPrefix(r.URL.Path, "/v1/") && !s.rl.Allow(r.Header.Get("X-API-Key")) {
			s.ctr.Add("serve.rate_limited", 1)
			s.ctr.Add("serve.tenant."+s.tenantOf(r)+".rate_limited", 1)
			w.Header().Set("Retry-After", "1")
			s.writeError(w, http.StatusTooManyRequests, errors.New("rate limit exceeded"))
			return
		}
		s.mux.ServeHTTP(w, r)
	})
}

// Counters returns the service's always-on counter set.
func (s *Server) Counters() *obs.Counters { return s.ctr }

// Started and Finished expose the drain accounting: after a graceful
// shutdown the two must be equal or requests were dropped mid-flight.
func (s *Server) Started() int64  { return s.started.Load() }
func (s *Server) Finished() int64 { return s.finished.Load() }

// CacheSize returns the number of cached answers (test/ops hook).
func (s *Server) CacheSize() int { return s.cache.size() }

// --- request/response shapes ---

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	Query string `json:"query"`
	// Vars selects output columns; empty = all variables in order of
	// first occurrence.
	Vars []string `json:"vars,omitempty"`
	// NoCache bypasses the answer cache for this request.
	NoCache bool `json:"no_cache,omitempty"`
	// Trace attaches this request's span tree to the response
	// (tracing must be enabled on the mediator).
	Trace bool `json:"trace,omitempty"`
	// TimeoutMs shortens the server's request timeout.
	TimeoutMs int `json:"timeout_ms,omitempty"`
}

// QueryResponse is the POST /v1/query reply.
type QueryResponse struct {
	Vars   []string   `json:"vars"`
	Rows   [][]string `json:"rows"`
	Count  int        `json:"count"`
	Cached bool       `json:"cached"`
	// Partial marks an answer computed without some registered source
	// (down, or not read yet); Missing names them.
	Partial bool            `json:"partial,omitempty"`
	Missing []string        `json:"missing,omitempty"`
	Trace   *obs.SpanExport `json:"trace,omitempty"`
}

// DeltaRequest is the POST /v1/delta body. Adds and Dels are ground
// facts in the rule language (e.g. "src_val('NCMIR', o1, name, 'x')"),
// with or without the trailing period.
type DeltaRequest struct {
	Source string   `json:"source"`
	Adds   []string `json:"adds,omitempty"`
	Dels   []string `json:"dels,omitempty"`
}

// DeltaResponse reports one applied delta: its counts, the change
// that took effect in /v1/facts' rendering (the lines it added and
// removed), and the source's stamp number before and after it (From,
// To), in the numbering of this process (Epoch). A router holding the
// source's dump at From patches it to To with the lines, unless the
// commit was a full rebuild, which it numbers but does not patch by.
// The numbers are zero only when nothing was committed.
type DeltaResponse struct {
	Source         string `json:"source"`
	FactsAdded     int    `json:"facts_added"`
	FactsRemoved   int    `json:"facts_removed"`
	AnchorsAdded   int    `json:"anchors_added"`
	AnchorsRemoved int    `json:"anchors_removed"`
	Full           bool   `json:"full_rebuild"`
	Epoch          uint64 `json:"epoch,omitempty"`
	From           uint64 `json:"from,omitempty"`
	To             uint64 `json:"to,omitempty"`
	mediator.DumpChange
}

// PlanResponse is the GET /v1/plan reply.
type PlanResponse struct {
	Sources    []string   `json:"sources"`
	Concepts   []string   `json:"concepts,omitempty"`
	Restricted bool       `json:"restricted"`
	Pushdowns  []PlanStep `json:"pushdowns,omitempty"`
	Trace      []string   `json:"trace,omitempty"`
}

// PlanStep is one planned source access.
type PlanStep struct {
	Source     string `json:"source"`
	Class      string `json:"class"`
	Selections int    `json:"selections"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ---

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	tenant := s.tenantOf(r)
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	s.ctr.Add("serve.tenant."+tenant+".requests", 1)
	var req QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.ctr.Add("serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		s.logRequest(r, tenant, http.StatusBadRequest, start, 0, outcomeComputed)
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		s.ctr.Add("serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, errors.New("empty query"))
		s.logRequest(r, tenant, http.StatusBadRequest, start, 0, outcomeComputed)
		return
	}
	// Everything before admission takes no mediator lock and is
	// linear in the text: prepare, which parses a new text (ordering
	// and compiling it wait for its first answer, under admission), and
	// for a cached request the cache key and dependency set. A cache
	// hit is then served without evaluating anything, and an
	// overloaded server sheds before doing any work — even while a slow
	// materialize holds the mediator's internals.
	p, err := s.med.Prepare(req.Query, req.Vars)
	if err != nil {
		s.ctr.Add("serve.bad_requests", 1)
		s.writeError(w, http.StatusBadRequest, err)
		s.logRequest(r, tenant, http.StatusBadRequest, start, 0, outcomeComputed)
		return
	}

	timeout := s.cfg.requestTimeout()
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	compute := func() (*mediator.Answer, error) {
		if err := s.adm.acquire(ctx, tenant); err != nil {
			return nil, err
		}
		defer s.adm.release()
		// Unknown predicates are client errors, not empty answers.
		if err := s.med.ValidateVocabulary(p.Body, p.Aux); err != nil {
			return nil, err
		}
		return s.med.QueryParsed(ctx, p)
	}

	var ans *mediator.Answer
	var out outcome
	if s.cfg.DisableCache || req.NoCache {
		ans, err = compute()
		out = outcomeComputed
	} else {
		deps, global := queryDeps(p.Body, p.Aux)
		key := cacheKey(p.Body, p.Aux, req.Vars)
		ans, out, err = s.cache.do(ctx, tenant, key, deps, global, compute)
	}
	if err != nil {
		s.ctr.Add("serve.query_errors", 1)
		status := http.StatusInternalServerError
		var be *datalog.ErrBudgetExceeded
		switch {
		case errors.Is(err, errShed):
			s.ctr.Add("serve.shed", 1)
			s.ctr.Add("serve.tenant."+tenant+".shed", 1)
			w.Header().Set("Retry-After", "1")
			status = http.StatusServiceUnavailable
		case errors.Is(err, mediator.ErrUnknownPredicate):
			s.ctr.Add("serve.bad_requests", 1)
			status = http.StatusBadRequest
		case errors.As(err, &be):
			// The engine's gas meter stopped a runaway evaluation: the
			// query is well-formed but too expensive under the server's
			// limits, which no retry will change — a client error, not
			// an outage.
			s.ctr.Add("serve.budget_exceeded", 1)
			s.ctr.Add("serve.tenant."+tenant+".budget_exceeded", 1)
			status = http.StatusUnprocessableEntity
		case errors.Is(err, context.DeadlineExceeded):
			s.ctr.Add("serve.timeouts", 1)
			s.ctr.Add("serve.tenant."+tenant+".timeouts", 1)
			status = http.StatusGatewayTimeout
		case errors.Is(err, context.Canceled):
			status = 499 // client closed request
		}
		s.writeError(w, status, err)
		s.logRequest(r, tenant, status, start, 0, out)
		return
	}
	switch out {
	case outcomeHit:
		s.ctr.Add("serve.cache_hits", 1)
	case outcomeCollapsed:
		s.ctr.Add("serve.cache_collapsed", 1)
	default:
		s.ctr.Add("serve.cache_misses", 1)
	}
	s.ctr.Add("serve.query_ok", 1)

	resp := &QueryResponse{
		Vars:    ans.Vars,
		Count:   len(ans.Rows),
		Cached:  out == outcomeHit,
		Partial: ans.Missing != nil,
		Missing: ans.Missing,
	}
	if req.Trace {
		resp.Trace = ans.Span.Export()
	}
	enc := GetReplyEncoder()
	defer enc.Release()
	err = enc.Encode(resp, ans.Rows)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	if err == nil {
		_, _ = w.Write(enc.Buf)
	}
	s.logRequest(r, tenant, http.StatusOK, start, resp.Count, out)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req DeltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	adds, err := parseFacts(req.Adds)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("adds: %w", err))
		return
	}
	dels, err := parseFacts(req.Dels)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, fmt.Errorf("dels: %w", err))
		return
	}
	rep, err := s.med.ApplySourceDelta(req.Source, adds, dels)
	if err != nil {
		s.ctr.Add("serve.delta_errors", 1)
		// Only a delta the mediator refused untouched is the client's
		// fault. A failed patch has poisoned the materialization and a
		// failed rebuild has left none: that is the server's state.
		status := http.StatusInternalServerError
		var be *datalog.ErrBudgetExceeded
		switch {
		case errors.Is(err, mediator.ErrBadDelta):
			status = http.StatusBadRequest
		case errors.As(err, &be):
			s.ctr.Add("serve.budget_exceeded", 1)
			status = http.StatusUnprocessableEntity
		}
		s.writeError(w, status, err)
		return
	}
	s.ctr.Add("serve.deltas", 1)
	s.writeJSON(w, http.StatusOK, deltaResponse(rep))
	s.logRequest(r, defaultTenant, http.StatusOK, start, rep.FactsAdded+rep.FactsRemoved, outcomeComputed)
}

func (s *Server) handleSync(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	reps, err := s.med.SyncSources()
	if err != nil {
		s.ctr.Add("serve.sync_errors", 1)
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.ctr.Add("serve.syncs", 1)
	out := make([]*DeltaResponse, 0, len(reps))
	for _, rep := range reps {
		out = append(out, deltaResponse(rep))
	}
	s.writeJSON(w, http.StatusOK, map[string]any{"refreshed": out})
	s.logRequest(r, defaultTenant, http.StatusOK, start, len(reps), outcomeComputed)
}

func deltaResponse(rep *mediator.DeltaReport) *DeltaResponse {
	return &DeltaResponse{
		Source:         rep.Source,
		FactsAdded:     rep.FactsAdded,
		FactsRemoved:   rep.FactsRemoved,
		AnchorsAdded:   rep.AnchorsAdded,
		AnchorsRemoved: rep.AnchorsRemoved,
		Full:           rep.Full,
		Epoch:          rep.Epoch,
		From:           rep.From,
		To:             rep.To,
		DumpChange:     rep.DumpChange(),
	}
}

func (s *Server) handlePlan(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	q := r.URL.Query().Get("q")
	if strings.TrimSpace(q) == "" {
		s.writeError(w, http.StatusBadRequest, errors.New("missing q parameter"))
		return
	}
	p, err := s.med.Plan(q)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, err)
		return
	}
	s.ctr.Add("serve.plans", 1)
	resp := &PlanResponse{
		Sources:    p.Sources,
		Concepts:   p.Concepts,
		Restricted: p.Restricted,
		Trace:      p.Trace,
	}
	for _, step := range p.Pushdowns {
		resp.Pushdowns = append(resp.Pushdowns, PlanStep{
			Source: step.Source, Class: step.Class, Selections: len(step.Selections),
		})
	}
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	sp := s.med.LastTrace()
	if sp == nil {
		s.writeJSON(w, http.StatusNotFound, errorResponse{Error: "no trace captured (enable tracing and run a query)"})
		return
	}
	s.writeJSON(w, http.StatusOK, sp.Export())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	inflight, queued := s.adm.stats()
	resp := map[string]any{
		"status":   "ok",
		"sources":  s.med.Sources(),
		"inflight": inflight,
		"queued":   queued,
	}
	if s.cfg.ShardID != "" {
		resp["shard_id"] = s.cfg.ShardID
	}
	s.writeJSON(w, http.StatusOK, resp)
}

// FactsResponse is the GET /v1/facts reply: this mediator's per-source
// contribution in the parseable rule language, reflecting every
// applied delta, each numbered with its stamp in the numbering of this
// process (Epoch). A cluster router gathers these from its shards when
// a query cannot be answered by unioning per-shard answers.
type FactsResponse struct {
	ShardID string                `json:"shard_id,omitempty"`
	Epoch   uint64                `json:"epoch"`
	Sources []mediator.SourceDump `json:"sources"`
}

func (s *Server) handleFacts(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		s.writeError(w, http.StatusMethodNotAllowed, errors.New("GET required"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.requestTimeout())
	defer cancel()
	dumps, err := s.med.FactsDump(ctx)
	if err != nil {
		s.ctr.Add("serve.facts_errors", 1)
		s.writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.ctr.Add("serve.facts_dumps", 1)
	s.writeJSON(w, http.StatusOK, &FactsResponse{ShardID: s.cfg.ShardID, Epoch: s.med.Epoch(), Sources: dumps})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	inflight, queued := s.adm.stats()
	s.ctr.Set("serve.inflight", int64(inflight))
	s.ctr.Set("serve.queued", int64(queued))
	for t, n := range s.adm.tenantQueued() {
		s.ctr.Set("serve.tenant."+t+".queued", int64(n))
	}
	s.ctr.Set("serve.cache_size", int64(s.cache.size()))
	s.ctr.Set("serve.subscribers", int64(s.subscriberCount()))
	s.ctr.Set("serve.requests_started", s.started.Load())
	s.ctr.Set("serve.requests_finished", s.finished.Load())
	if err := s.ctr.WritePrometheus(w, "modelmed"); err != nil {
		return
	}
	// The mediator's own counters exist only while tracing is enabled.
	_ = s.med.ObsCounters().WritePrometheus(w, "modelmed")
}

// --- helpers ---

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (s *Server) logRequest(r *http.Request, tenant string, status int, start time.Time, rows int, out outcome) {
	mode := "miss"
	switch out {
	case outcomeHit:
		mode = "hit"
	case outcomeCollapsed:
		mode = "collapsed"
	}
	s.log.Printf("method=%s path=%s tenant=%s status=%d dur=%s rows=%d cache=%s",
		r.Method, r.URL.Path, tenant, status, time.Since(start).Round(time.Microsecond), rows, mode)
}

// tenantOf maps a request to its tenant: the X-API-Key header when
// the operator listed that key in TenantWeights, the default tenant
// otherwise. Collapsing unknown keys keeps tenant cardinality (queues,
// cache partitions, metric series) operator-bounded.
func (s *Server) tenantOf(r *http.Request) string {
	k := r.Header.Get("X-API-Key")
	if k == "" {
		return defaultTenant
	}
	if _, ok := s.cfg.TenantWeights[k]; ok {
		return k
	}
	return defaultTenant
}

// parseFacts parses ground facts written in the rule language.
func parseFacts(lines []string) ([]datalog.Rule, error) {
	var out []datalog.Rule
	for _, l := range lines {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		if !strings.HasSuffix(l, ".") {
			l += "."
		}
		rules, err := parser.ParseRules(l)
		if err != nil {
			return nil, err
		}
		out = append(out, rules...)
	}
	return out, nil
}

// srcPreds are the namespaced source-fact predicates whose first
// argument names the contributing source.
var srcPreds = map[string]bool{
	mediator.PredSrcObj: true, mediator.PredSrcVal: true,
	mediator.PredSrcSub: true, mediator.PredSrcTuple: true,
	mediator.PredAnchor: true,
}

// queryDeps derives the cache dependency set of a query: the ground
// source names its body (and any query-local rule bodies) read. Any
// variable source position, derived predicate (views, GCM bridge,
// domain-map operations) or aggregate over one makes the query depend
// on everything (global), since those derivations can draw on any
// source.
func queryDeps(body []datalog.BodyElem, aux []datalog.Rule) (deps []string, global bool) {
	seen := map[string]bool{}
	auxHeads := map[string]bool{}
	for _, r := range aux {
		auxHeads[r.Head.Pred] = true
	}
	var walk func(es []datalog.BodyElem)
	walk = func(es []datalog.BodyElem) {
		for _, e := range es {
			switch x := e.(type) {
			case datalog.Literal:
				if datalog.IsBuiltin(x.Pred, len(x.Args)) || auxHeads[x.Pred] {
					continue
				}
				if srcPreds[x.Pred] && len(x.Args) >= 1 && x.Args[0].Kind() == term.KindAtom {
					name := x.Args[0].Name()
					if !seen[name] {
						seen[name] = true
						deps = append(deps, name)
					}
					continue
				}
				global = true
			case datalog.Aggregate:
				inner := make([]datalog.BodyElem, len(x.Body))
				for i, l := range x.Body {
					inner[i] = l
				}
				walk(inner)
			}
		}
	}
	walk(body)
	for _, r := range aux {
		walk(r.Body)
	}
	if global {
		return nil, true
	}
	return deps, false
}

// cacheKey renders the normalized form of a query: the parsed body and
// query-local rules (whitespace of the original text no longer
// matters) and the selected vars.
func cacheKey(body []datalog.BodyElem, aux []datalog.Rule, vars []string) string {
	var b strings.Builder
	for i, e := range body {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%v", e)
	}
	for _, r := range aux {
		fmt.Fprintf(&b, " :- %v", r)
	}
	b.WriteString("|vars=")
	b.WriteString(strings.Join(vars, ","))
	return b.String()
}
