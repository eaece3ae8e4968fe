package cluster

// The router: the cluster's front door, speaking the same /v1/query,
// /v1/delta and /v1/sync API as a single medd. Each query is parsed
// once, classified (decompose.go) and executed in the cheapest sound
// mode. Every /v1/query reply is written by serve's encoder into a
// pooled buffer — serve's prefix, then the router's mode and shard
// reports: a proxy relays the shard's encoded rows and its cached flag
// as they stand, a scatter unions the shards' rows deduped by their
// bytes (wire.go), and replicated and gather answers encode their cells
// straight from the fixpoint, so no row is decoded or held as strings.
// The router keeps no answers of its own: the shards' answer caches
// validate by the versions their mediators publish, so they see a move
// made at a shard directly, which a router-side cache would not. Each
// delta is forwarded to the one shard owning its source, and the change
// the shard's reply reports committing patches the router's dump of
// that source before the router's own 200, so the router reads its own
// writes without a re-ship. The router holds a *replica* mediator
// carrying only the static knowledge (domain map, views, no sources):
// the value it publishes answers replicated-only queries locally, and
// its program over the shards' fact dumps is the materialised replica
// every gather reads.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/mediator"
	"modelmed/internal/obs"
	"modelmed/internal/serve"
)

// RouterConfig configures a Router.
type RouterConfig struct {
	// Shards is the cluster topology (required).
	Shards []ShardConfig
	// Replica is a mediator holding the replicated static knowledge —
	// same domain map and views as every shard, no registered sources
	// (required). Its program must not change once the router serves:
	// the router keeps a materialisation of it over the shards' dumps.
	Replica *mediator.Mediator
	// RequestTimeout bounds each client request end to end, shard calls
	// included (default 30s; a request's timeout_ms can shorten it).
	RequestTimeout time.Duration
	// RateLimits is the front-door per-key token bucket set
	// (KEY -> requests/second), as in the single-node service.
	RateLimits map[string]float64
	// Breaker is each shard's circuit-breaker policy (default threshold
	// 1: the first transport failure opens the breaker — shards are
	// single processes, not flaky WANs; default cooldown 500ms paces
	// the re-probes).
	Breaker breaker.Config
	// Client issues the shard HTTP calls (default: 10s-timeout client).
	Client *http.Client
	// Log receives request lines; nil disables request logging.
	Log *log.Logger
}

func (c RouterConfig) requestTimeout() time.Duration {
	if c.RequestTimeout <= 0 {
		return 30 * time.Second
	}
	return c.RequestTimeout
}

// Router is the HTTP front end over a Manager.
type Router struct {
	cfg     RouterConfig
	man     *Manager
	rep     *mediator.Mediator
	rl      *serve.RateLimiter
	ctr     *obs.Counters
	log     *log.Logger
	mux     *http.ServeMux
	facts   *factsCache
	replica *replica
}

// NewRouter builds the router. Call Discover (usually at daemon boot)
// to learn the source assignment.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if cfg.Replica == nil {
		return nil, fmt.Errorf("cluster: router needs a replica mediator")
	}
	br := cfg.Breaker
	if br.Threshold <= 0 {
		br.Threshold = 1
	}
	if br.Cooldown <= 0 {
		br.Cooldown = 500 * time.Millisecond
	}
	man, err := newManager(cfg.Shards, br, cfg.Client)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:     cfg,
		man:     man,
		rep:     cfg.Replica,
		rl:      serve.NewRateLimiter(cfg.RateLimits),
		ctr:     obs.NewCounters(),
		log:     cfg.Log,
		facts:   newFactsCache(),
		replica: newReplica(),
	}
	rt.ctr.Add("router.replica_patches", 0)
	rt.ctr.Add("router.replica_rebuilds", 0)
	rt.ctr.Add("router.dump_patches", 0)
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/query", rt.handleQuery)
	mux.HandleFunc("/v1/delta", rt.handleDelta)
	mux.HandleFunc("/v1/sync", rt.handleSync)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	rt.mux = mux
	return rt, nil
}

// Manager exposes the shard manager (ops/test hook).
func (rt *Router) Manager() *Manager { return rt.man }

// Counters exposes the router's counter set.
func (rt *Router) Counters() *obs.Counters { return rt.ctr }

// Discover probes the shards and builds the source assignment.
func (rt *Router) Discover(ctx context.Context) error { return rt.man.Discover(ctx) }

// Handler returns the HTTP handler (front-door rate limiter wraps the
// mux; health and metrics stay reachable regardless).
func (rt *Router) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.ctr.Add("router.requests", 1)
		if strings.HasPrefix(r.URL.Path, "/v1/") && !rt.rl.Allow(r.Header.Get("X-API-Key")) {
			rt.ctr.Add("router.rate_limited", 1)
			w.Header().Set("Retry-After", "1")
			rt.writeError(w, http.StatusTooManyRequests, errors.New("rate limit exceeded"))
			return
		}
		rt.mux.ServeHTTP(w, r)
	})
}

// QueryResponse is the schema of the router's POST /v1/query reply,
// as clients decode it: the single-node shape plus the execution mode,
// the partial flag, and the per-shard reports. The router writes it by
// hand (reply.finish), with the rows as bytes.
type QueryResponse struct {
	Vars   []string   `json:"vars"`
	Rows   [][]string `json:"rows"`
	Count  int        `json:"count"`
	Cached bool       `json:"cached"`
	// Partial marks an answer computed without one or more down shards,
	// or from a shard's own partial answer: every row is a true answer
	// (the query class is monotone) but rows owned by the missing shards
	// or sources may be absent. Never set silently.
	Partial bool `json:"partial,omitempty"`
	// Mode is the decomposition class: replicated, proxy, scatter or
	// gather.
	Mode   string        `json:"mode"`
	Shards []ShardReport `json:"shards,omitempty"`
}

// reply is a router /v1/query answer whose vars and rows are written
// in the reply buffer (serve.ReplyEncoder.Head and the rows): the
// fields that follow them.
type reply struct {
	count   int
	cached  bool // a proxy's shard answered from its cache
	partial bool
	mode    string
	shards  []ShardReport
}

// finish appends the fields after the rows, serve's and the router's
// own, ending the reply as QueryResponse's JSON encoding ends.
func (r *reply) finish(e *serve.ReplyEncoder) {
	e.Tail(r.count, r.cached, r.partial)
	b := serve.AppendJSONString(append(e.Buf, `,"mode":`...), r.mode)
	if len(r.shards) > 0 {
		b = append(b, `,"shards":[`...)
		for i, rep := range r.shards {
			if i > 0 {
				b = append(b, ',')
			}
			b = serve.AppendJSONString(append(b, `{"shard":`...), rep.ID)
			if len(rep.Sources) > 0 {
				b = serve.AppendJSONStrings(append(b, `,"sources":`...), rep.Sources)
			}
			b = serve.AppendJSONString(append(b, `,"status":`...), rep.Status)
			if rep.Error != "" {
				b = serve.AppendJSONString(append(b, `,"error":`...), rep.Error)
			}
			if rep.Rows != 0 {
				b = strconv.AppendInt(append(b, `,"rows":`...), int64(rep.Rows), 10)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	e.Buf = append(b, "}\n"...)
}

// DeltaResponse is the router's POST /v1/delta reply: the owning
// shard's report and its ID.
type DeltaResponse struct {
	serve.DeltaResponse
	Shard string `json:"shard"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func (rt *Router) writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func (rt *Router) writeError(w http.ResponseWriter, status int, err error) {
	rt.writeJSON(w, status, errorResponse{Error: err.Error()})
}

func (rt *Router) logf(format string, args ...any) {
	if rt.log != nil {
		rt.log.Printf(format, args...)
	}
}

// --- query ---

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req serve.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	p, err := rt.rep.Prepare(req.Query, req.Vars)
	if err != nil {
		rt.ctr.Add("router.query_errors", 1)
		rt.writeError(w, http.StatusBadRequest, err)
		return
	}
	timeout := rt.cfg.requestTimeout()
	if req.TimeoutMs > 0 {
		if d := time.Duration(req.TimeoutMs) * time.Millisecond; d < timeout {
			timeout = d
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), timeout)
	defer cancel()

	enc := serve.GetReplyEncoder()
	defer enc.Release()
	dec := Classify(p.Body, p.Aux, rt.rep.ViewRules())
	apiKey := r.Header.Get("X-API-Key")
	var resp *reply
	var status int
	switch dec.Mode {
	case ModeReplicated:
		resp, status, err = rt.replicatedQuery(ctx, enc, p)
	case ModeSources:
		resp, status, err = rt.sourcesQuery(ctx, enc, apiKey, &req, &dec, p)
	case ModeScatter:
		resp, status, err = rt.scatterQuery(ctx, enc, apiKey, &req)
	default:
		resp, status, err = rt.gatherQuery(ctx, enc, p, &dec, rt.man.Shards())
	}
	if err != nil {
		rt.ctr.Add("router.query_errors", 1)
		rt.writeError(w, status, err)
		rt.logf("method=POST path=/v1/query mode=%s status=%d dur=%s err=%v", dec.Mode, status, time.Since(start), err)
		return
	}
	rt.ctr.Add("router.queries", 1)
	rt.ctr.Add("router."+dec.Mode.String(), 1)
	if resp.partial {
		rt.ctr.Add("router.partial_answers", 1)
	}
	resp.finish(enc)
	rt.write(w, enc.Buf)
	rt.logf("method=POST path=/v1/query mode=%s status=200 dur=%s rows=%d cached=%v partial=%v",
		resp.mode, time.Since(start), resp.count, resp.cached, resp.partial)
}

// write sends a 200 with an encoded JSON body.
func (rt *Router) write(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// replicatedQuery answers the prepared query from the value the replica
// mediator publishes over its static knowledge — zero shard calls, no
// build once that value exists.
func (rt *Router) replicatedQuery(ctx context.Context, e *serve.ReplyEncoder, p *mediator.Prepared) (*reply, int, error) {
	if err := rt.rep.ValidateVocabulary(p.Body, p.Aux); err != nil {
		return nil, http.StatusBadRequest, err
	}
	ans, err := rt.rep.QueryParsed(ctx, p)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	e.Head(ans.Vars)
	e.CellRows(ans.Rows)
	return &reply{count: len(ans.Rows), mode: ModeReplicated.String()}, 0, nil
}

// sourcesQuery handles queries pinned to ground sources: proxy when
// one shard owns them all, restricted gather when they span shards.
// Sources no shard owns contribute no facts anywhere, matching what an
// unregistered source yields on a single mediator.
func (rt *Router) sourcesQuery(ctx context.Context, e *serve.ReplyEncoder, apiKey string, req *serve.QueryRequest, dec *Decomposition, p *mediator.Prepared) (*reply, int, error) {
	owners := map[*Shard]bool{}
	for _, src := range dec.Sources {
		if sh, ok := rt.man.Owner(src); ok {
			owners[sh] = true
		}
	}
	switch len(owners) {
	case 0:
		// No owned facts: evaluate over static knowledge alone.
		resp, status, err := rt.replicatedQuery(ctx, e, p)
		if resp != nil {
			resp.mode = "proxy"
		}
		return resp, status, err
	case 1:
		for sh := range owners {
			return rt.proxyQuery(ctx, e, apiKey, req, sh)
		}
	}
	shards := make([]*Shard, 0, len(owners))
	for sh := range owners {
		shards = append(shards, sh)
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].ID < shards[j].ID })
	return rt.gatherQuery(ctx, e, p, dec, shards)
}

// proxyQuery forwards the request verbatim to one shard and relays its
// rows as the shard encoded them, and its cached flag.
func (rt *Router) proxyQuery(ctx context.Context, e *serve.ReplyEncoder, apiKey string, req *serve.QueryRequest, sh *Shard) (*reply, int, error) {
	if !sh.br.Allow() {
		return nil, http.StatusServiceUnavailable, fmt.Errorf("shard %s is down: %s", sh.ID, rt.man.Report(sh).Error)
	}
	sa, err := rt.man.Query(ctx, sh, apiKey, req)
	if err != nil {
		if ShardDown(err) {
			if shardFault(ctx, err) {
				sh.br.Failure(err)
			}
			return nil, http.StatusBadGateway, fmt.Errorf("shard %s: %w", sh.ID, err)
		}
		var se *StatusError
		errors.As(err, &se)
		return nil, se.Status, fmt.Errorf("shard %s: %s", sh.ID, se.Message)
	}
	defer sa.Release()
	sh.br.Success()
	return relay(e, sa, rt.man.Report(sh)), 0, nil
}

// scatterQuery fans the request out to every shard and unions the
// answers, deduping rows by their encoding. Down shards yield a flagged
// partial answer; a deterministic client rejection (4xx) from any shard
// is relayed as-is.
func (rt *Router) scatterQuery(ctx context.Context, e *serve.ReplyEncoder, apiKey string, req *serve.QueryRequest) (*reply, int, error) {
	shards := rt.man.Shards()
	answers := make([]*ShardAnswer, len(shards))
	errs := make([]error, len(shards))
	skipped := make([]bool, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		if !sh.br.Allow() {
			skipped[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			answers[i], errs[i] = rt.man.Query(ctx, sh, apiKey, req)
		}(i, sh)
	}
	wg.Wait()
	defer func() {
		for _, a := range answers {
			if a != nil {
				a.Release()
			}
		}
	}()

	resp := &reply{mode: ModeScatter.String()}
	var okCount int
	for i, sh := range shards {
		rep := rt.man.Report(sh)
		switch {
		case skipped[i]:
			resp.partial = true
		case errs[i] != nil:
			if !ShardDown(errs[i]) {
				var se *StatusError
				errors.As(errs[i], &se)
				return nil, se.Status, fmt.Errorf("shard %s: %s", sh.ID, se.Message)
			}
			if shardFault(ctx, errs[i]) {
				sh.br.Failure(errs[i])
			}
			rep = rt.man.Report(sh)
			rep.Status = "failed"
			rep.Error = errs[i].Error()
			resp.partial = true
		default:
			sh.br.Success()
			rep = rt.man.Report(sh)
			okCount++
			resp.partial = resp.partial || answers[i].Partial
			rep.Rows = answers[i].Len()
		}
		resp.shards = append(resp.shards, rep)
	}
	if okCount == 0 {
		return nil, http.StatusServiceUnavailable, errors.New("all shards down")
	}
	resp.count = mergeRows(e, answers)
	return resp, 0, nil
}

// gatherQuery evaluates the prepared query at the router over the
// replicated static knowledge and the given shards' fact dumps,
// re-shipping the dumps that are not fresh, by reading the replica
// moved to them. A full gather (ModeGather) moves the replica to
// exactly the dumps of the shards that answered, so a down shard's
// sources leave it. A restricted one (ModeSources across shards) moves
// only its shards' sources and keeps the others as the replica holds
// them: the query reads no other source. Either way a cluster whose
// shard set holds still patches the replica instead of rebuilding it.
func (rt *Router) gatherQuery(ctx context.Context, e *serve.ReplyEncoder, p *mediator.Prepared, dec *Decomposition, shards []*Shard) (*reply, int, error) {
	got := make([]gathered, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		dumps, fresh := rt.facts.get(sh.ID)
		if fresh {
			rt.ctr.Add("router.facts_cache_hits", 1)
			continue
		}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			got[i] = rt.loadFacts(ctx, sh, dumps)
		}(i, sh)
	}
	wg.Wait()

	resp := &reply{mode: ModeGather.String()}
	answered := make([]*Shard, 0, len(shards))
	for i, sh := range shards {
		g := &got[i]
		rep := rt.man.Report(sh)
		switch {
		case g.badDump != nil:
			return nil, http.StatusInternalServerError, g.badDump
		case g.skipped:
			resp.partial = true
		case g.err != nil:
			if shardFault(ctx, g.err) {
				sh.br.Failure(g.err)
			}
			rep = rt.man.Report(sh)
			rep.Status = "failed"
			rep.Error = g.err.Error()
			resp.partial = true
		default:
			if g.shipped {
				sh.br.Success()
				rep = rt.man.Report(sh)
			}
			answered = append(answered, sh)
		}
		resp.shards = append(resp.shards, rep)
	}
	if resp.partial && dec.NoPartial {
		// An aggregate or negation over source facts evaluated without a
		// shard's contribution is wrong, not partial — refuse.
		return nil, http.StatusServiceUnavailable,
			errors.New("shard down and query aggregates/negates over source facts; partial answer would be wrong")
	}
	st := rt.facts.state(answered)
	if dec.Mode == ModeSources {
		mine := map[string]bool{}
		for _, sh := range shards {
			for _, src := range sh.Sources() {
				mine[src] = true
			}
		}
		st.keep = func(src string) bool { return !mine[src] }
	}
	ans, err := rt.replicaQuery(ctx, p, st)
	if err != nil {
		if errors.Is(err, mediator.ErrUnknownPredicate) {
			return nil, http.StatusBadRequest, err
		}
		return nil, http.StatusInternalServerError, err
	}
	e.Head(ans.Vars)
	e.CellRows(ans.Rows)
	resp.count = len(ans.Rows)
	return resp, 0, nil
}

// gathered is one shard's part of a gather.
type gathered struct {
	shipped bool  // re-shipped by this request
	skipped bool  // the shard is down and its dump stale
	err     error // the shard call failed
	badDump error // the shipped dump does not parse
}

// loadFacts re-ships a shard's dumps that were not fresh, parses them
// against base, the held ones, and caches them.
func (rt *Router) loadFacts(ctx context.Context, sh *Shard, base []*mediator.ParsedDump) gathered {
	if !sh.br.Allow() {
		return gathered{skipped: true}
	}
	fr, err := rt.man.Facts(ctx, sh)
	if err != nil {
		return gathered{err: err}
	}
	rt.ctr.Add("router.facts_fetches", 1)
	prev := make(map[string]*mediator.ParsedDump, len(base))
	for _, d := range base {
		prev[d.Source] = d
	}
	dumps := make([]*mediator.ParsedDump, len(fr.Sources))
	for i, d := range fr.Sources {
		if dumps[i], err = mediator.ParseDump(d, prev[d.Source]); err != nil {
			return gathered{badDump: fmt.Errorf("shard %s: %w", sh.ID, err)}
		}
	}
	rt.facts.put(sh.ID, fr.Epoch, dumps)
	return gathered{shipped: true}
}

// replicaQuery answers the query over the replica, first moving it to
// st if it does not cover st.
func (rt *Router) replicaQuery(ctx context.Context, p *mediator.Prepared, st factsState) (*mediator.Answer, error) {
	res := rt.replica.get(st)
	if res == nil {
		var patched, rebuilt bool
		var err error
		res, patched, rebuilt, err = rt.replica.advance(ctx, rt.rep, st, rt.cfg.requestTimeout())
		if patched {
			rt.ctr.Add("router.replica_patches", 1)
		}
		if rebuilt {
			rt.ctr.Add("router.replica_rebuilds", 1)
		}
		if err != nil {
			return nil, err
		}
	}
	return rt.rep.QueryResult(ctx, res, p)
}

// --- delta / sync ---

func (rt *Router) handleDelta(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req serve.DeltaRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		rt.writeError(w, http.StatusBadRequest, fmt.Errorf("decode: %w", err))
		return
	}
	if req.Source == "" {
		rt.writeError(w, http.StatusBadRequest, errors.New("missing source"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.requestTimeout())
	defer cancel()
	sh, ok := rt.man.Owner(req.Source)
	if !ok {
		// The topology may have changed under us (a shard restarted with
		// new sources): re-discover once before rejecting.
		if err := rt.man.Discover(ctx); err == nil {
			sh, ok = rt.man.Owner(req.Source)
		}
		if !ok {
			rt.ctr.Add("router.delta_errors", 1)
			rt.writeError(w, http.StatusBadRequest, fmt.Errorf("no shard owns source %s", req.Source))
			return
		}
	}
	if !sh.br.Allow() {
		rt.ctr.Add("router.delta_errors", 1)
		rt.writeError(w, http.StatusServiceUnavailable, fmt.Errorf("shard %s is down: %s", sh.ID, rt.man.Report(sh).Error))
		return
	}
	sr, err := rt.man.Delta(ctx, sh, r.Header.Get("X-API-Key"), &req)
	if err != nil {
		rt.ctr.Add("router.delta_errors", 1)
		if ShardDown(err) {
			if shardFault(ctx, err) {
				sh.br.Failure(err)
			}
			rt.writeError(w, http.StatusBadGateway, fmt.Errorf("shard %s: %w", sh.ID, err))
			return
		}
		var se *StatusError
		errors.As(err, &se)
		rt.writeError(w, se.Status, fmt.Errorf("shard %s: %s", sh.ID, se.Message))
		return
	}
	sh.br.Success()
	rt.patchDump(sh.ID, sr)
	rt.ctr.Add("router.deltas", 1)
	rt.writeJSON(w, http.StatusOK, &DeltaResponse{DeltaResponse: *sr, Shard: sh.ID})
	rt.logf("method=POST path=/v1/delta source=%s shard=%s status=200 dur=%s",
		req.Source, sh.ID, time.Since(start))
}

// patchDump records the change sr reports as routed to the shard and,
// when the held dump of its source is the state the change was taken
// from, patches that dump to the state it committed. A full rebuild or
// a patch that does not apply leaves the dump stale, for the next
// gather to re-ship.
func (rt *Router) patchDump(shardID string, sr *serve.DeltaResponse) {
	if sr.Epoch == 0 {
		return // nothing committed
	}
	var base, next *mediator.ParsedDump
	if !sr.Full {
		base = rt.facts.held(shardID, sr.Epoch, sr.Source, sr.From)
	}
	if base != nil {
		var err error
		if next, err = base.Patch(sr.DumpChange, sr.To); err != nil {
			rt.logf("shard %s: %v", shardID, err)
			base = nil
		}
	}
	if rt.facts.routed(shardID, sr.Epoch, sr.Source, sr.To, base, next) {
		rt.ctr.Add("router.dump_patches", 1)
	}
}

func (rt *Router) handleSync(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		rt.writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), rt.cfg.requestTimeout())
	defer cancel()
	apiKey := r.Header.Get("X-API-Key")
	shards := rt.man.Shards()
	refreshed := make([][]*serve.DeltaResponse, len(shards))
	errs := make([]error, len(shards))
	skipped := make([]bool, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		if !sh.br.Allow() {
			skipped[i] = true
			continue
		}
		wg.Add(1)
		go func(i int, sh *Shard) {
			defer wg.Done()
			refreshed[i], errs[i] = rt.man.Sync(ctx, sh, apiKey)
		}(i, sh)
	}
	wg.Wait()

	var out []*DeltaResponse
	var reports []ShardReport
	var anyOK bool
	for i, sh := range shards {
		rep := rt.man.Report(sh)
		switch {
		case skipped[i]:
		case errs[i] != nil:
			if shardFault(ctx, errs[i]) {
				sh.br.Failure(errs[i])
			}
			rep = rt.man.Report(sh)
			rep.Status = "failed"
			rep.Error = errs[i].Error()
		default:
			sh.br.Success()
			rep = rt.man.Report(sh)
			anyOK = true
			for _, sr := range refreshed[i] {
				rt.patchDump(sh.ID, sr)
				out = append(out, &DeltaResponse{DeltaResponse: *sr, Shard: sh.ID})
			}
		}
		reports = append(reports, rep)
	}
	if !anyOK {
		rt.ctr.Add("router.sync_errors", 1)
		rt.writeError(w, http.StatusServiceUnavailable, errors.New("all shards down"))
		return
	}
	rt.ctr.Add("router.syncs", 1)
	rt.writeJSON(w, http.StatusOK, map[string]any{"refreshed": out, "shards": reports})
}

// --- health / metrics ---

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	shards := rt.man.Shards()
	reports := make([]ShardReport, 0, len(shards))
	status := "ok"
	for _, sh := range shards {
		rep := rt.man.Report(sh)
		if rep.Status != "ok" {
			status = "degraded"
		}
		reports = append(reports, rep)
	}
	rt.writeJSON(w, http.StatusOK, map[string]any{
		"status":  status,
		"sources": rt.man.Sources(),
		"shards":  reports,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap := rt.ctr.Snapshot()
	names := make([]string, 0, len(snap))
	for n := range snap {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %d\n", strings.ReplaceAll(n, ".", "_"), snap[n])
	}
}
