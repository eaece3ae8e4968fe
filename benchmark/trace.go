package main

// The traced run: a sequential, one-client pass per workload in which
// the harness replays the generated inputs but performs each request's
// steps itself, by calling the layers' exported functions, and records
// a span around every call. Because spans are recorded from outside, a
// layer's self time is the outer call's median minus the median of the
// inner exported call on the same input. End-to-end metrics never come
// from here.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"modelmed/internal/cluster"
	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/parser"
	"modelmed/internal/persist"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
	"modelmed/internal/xmlio"
)

// perLayer lists every per-layer metric; the layer is the package name
// before the first dot. A metric that does not apply to a workload
// reads 0 there.
var perLayer = []metricDef{
	{Name: "parser.parse_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.self_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.loopback_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.resp_bytes_op", Unit: "B", Better: "lower"},
	{Name: "mediator.query_ms", Unit: "ms", Better: "lower"},
	{Name: "datalog.result_query_ms", Unit: "ms", Better: "lower"},
	{Name: "mediator.planned_query_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.classify_us", Unit: "us", Better: "lower"},
	{Name: "cluster.router_handler_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.shard_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.router_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "cluster.mode_count.replicated", Unit: "count", Better: "lower"},
	{Name: "cluster.mode_count.proxy", Unit: "count", Better: "lower"},
	{Name: "cluster.mode_count.scatter", Unit: "count", Better: "lower"},
	{Name: "cluster.mode_count.gather", Unit: "count", Better: "lower"},
	{Name: "cluster.facts_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.facts_bytes_op", Unit: "B", Better: "lower"},
	{Name: "cluster.facts_fetches", Unit: "count", Better: "lower"},
	{Name: "cluster.facts_cache_hits", Unit: "count", Better: "higher"},
	{Name: "mediator.facts_dump_ms", Unit: "ms", Better: "lower"},
	{Name: "mediator.query_over_facts_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.delta_route_ms", Unit: "ms", Better: "lower"},
	{Name: "mediator.direct_gather_ms", Unit: "ms", Better: "lower"},
	{Name: "mediator.apply_delta_ms", Unit: "ms", Better: "lower"},
	{Name: "datalog.delta_overdeleted", Unit: "count", Better: "lower"},
	{Name: "datalog.delta_rederived", Unit: "count", Better: "lower"},
	{Name: "datalog.delta_firings", Unit: "count", Better: "lower"},
	{Name: "datalog.delta_rounds", Unit: "count", Better: "lower"},
	{Name: "mediator.delta_full_rebuilds", Unit: "count", Better: "lower"},
	{Name: "persist.wal_append_us", Unit: "us", Better: "lower"},
	{Name: "persist.wal_append_sync_us", Unit: "us", Better: "lower"},
	{Name: "persist.wal_bytes_op", Unit: "B", Better: "lower"},
	{Name: "serve.delta_post_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.notify_lag_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.cache_invalidations_source", Unit: "count", Better: "lower"},
	{Name: "serve.cache_entries_dropped", Unit: "count", Better: "lower"},
	{Name: "mediator.register_ms", Unit: "ms", Better: "lower"},
	{Name: "wrapper.export_cm_ms", Unit: "ms", Better: "lower"},
	{Name: "xmlio.translate_ms", Unit: "ms", Better: "lower"},
	{Name: "mediator.cold_materialize_ms", Unit: "ms", Better: "lower"},
	{Name: "datalog.cold_facts_derived", Unit: "count", Better: "lower"},
	{Name: "datalog.cold_firings", Unit: "count", Better: "lower"},
	{Name: "datalog.cold_rounds", Unit: "count", Better: "lower"},
	{Name: "persist.snapshot_save_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes", Unit: "B", Better: "lower"},
	{Name: "persist.warm_restore_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.replay_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.throughput_ops_s", Unit: "1/s", Better: "higher"},
	{Name: "tail.latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.latency_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.heap_inuse_mb", Unit: "MiB", Better: "lower"},
	{Name: "obs.tracing_on_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "loadgen.trace_overhead_ms", Unit: "ms", Better: "lower"},
}

// span is one timed call into a layer. Parent is the span of the call
// that, inside the program, would have made this one.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Request int    `json:"request"`
	Name    string `json:"name"`
	Class   string `json:"class,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; it is used from one goroutine. The
// first error a timed call returns sticks: later calls are skipped and
// the pass returns it.
type tracer struct {
	t0    time.Time
	spans []span
	err   error
}

// time runs fn inside a span and returns the span's id.
func (t *tracer) time(name, class string, request, parent int, fn func() error) int {
	if t.err != nil {
		return 0
	}
	start := time.Since(t.t0)
	err := fn()
	end := time.Since(t.t0)
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Request: request, Name: name, Class: class,
		StartNs: start.Nanoseconds(), EndNs: end.Nanoseconds()})
	if err != nil {
		t.err = fmt.Errorf("%s (%s): %w", name, class, err)
	}
	return len(t.spans)
}

// slowest runs fn on each of n targets in turn, one span each, and
// returns the id of the longest: the one a fan-out waits for. The
// others are renamed "<name>.faster" so they stay in the trace but out
// of the layer's median.
func (t *tracer) slowest(name, class string, request, parent, n int, fn func(i int) error) int {
	worst := 0
	for i := 0; i < n && t.err == nil; i++ {
		i := i
		id := t.time(name, class, request, parent, func() error { return fn(i) })
		if worst == 0 {
			worst = id
			continue
		}
		cur, w := &t.spans[id-1], &t.spans[worst-1]
		if cur.EndNs-cur.StartNs > w.EndNs-w.StartNs {
			w.Name += ".faster"
			worst = id
		} else {
			cur.Name += ".faster"
		}
	}
	return worst
}

// byClass returns the durations in ms of the named spans, per class.
func (t *tracer) byClass(name string) map[string][]float64 {
	out := map[string][]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			out[s.Class] = append(out[s.Class], float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// classMean is the mean over classes of each class's median duration
// in ms: the classes are issued in equal shares, and a median over the
// pooled mixture would sit on a class boundary.
func (t *tracer) classMean(name string) float64 {
	var meds []float64
	for _, v := range t.byClass(name) {
		meds = append(meds, median(v))
	}
	return mean(meds)
}

// classSum is the sum over classes of each class's median duration in
// ms, for steps done once per source.
func (t *tracer) classSum(name string) float64 {
	var sum float64
	for _, v := range t.byClass(name) {
		sum += median(v)
	}
	return sum
}

// layerRun is one traced run in progress.
type layerRun struct {
	w   *workload
	cfg runConfig
	t   *tracer
	m   map[string]float64
	req int // request id counter
}

func (lr *layerRun) nextRequest() int {
	lr.req++
	return lr.req
}

// inMemory serves one request on h without a socket.
func inMemory(h http.Handler, method, path string, body []byte) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	return nil
}

// setupLayers times the steps of a cold boot one by one, on a monolith
// at the workload's scale: what setup_s is made of.
func (lr *layerRun) setupLayers() (*mediator.Mediator, error) {
	ws, err := buildSources(lr.cfg.seed, lr.w.Scale)
	if err != nil {
		return nil, err
	}
	t := lr.t
	med := mediator.New(sources.NeuroDM(), nil)
	boot := t.time("boot", "", 0, 0, func() error { return nil })
	for _, name := range sourceNames {
		w := ws[name]
		var doc []byte
		reg := t.time("mediator.register", name, 0, boot, func() error { return med.Register(w) })
		t.time("wrapper.export_cm", name, 0, reg, func() (err error) {
			_, doc, err = w.ExportCM()
			return err
		})
		t.time("xmlio.translate", name, 0, reg, func() error {
			if err := xmlio.ValidateGCMX(doc); err != nil {
				return err
			}
			model, err := xmlio.DecodeModel(doc)
			if err != nil {
				return err
			}
			return model.Validate()
		})
	}
	t.time("mediator.define_views", "", 0, boot, med.DefineStandardViews)
	t.time("mediator.cold_materialize", "", 0, boot, func() error {
		_, err := med.Materialize()
		return err
	})
	if t.err != nil {
		return nil, t.err
	}
	lr.m["mediator.register_ms"] = t.classSum("mediator.register")
	lr.m["wrapper.export_cm_ms"] = t.classSum("wrapper.export_cm")
	lr.m["xmlio.translate_ms"] = t.classSum("xmlio.translate")
	lr.m["mediator.cold_materialize_ms"] = t.classSum("mediator.cold_materialize")

	// The engine's own counters exist only while tracing is on, so the
	// exact counts come from a second, traced cold build.
	counted, err := registered(ws, sourceNames)
	if err != nil {
		return nil, err
	}
	counted.EnableTracing(true)
	if _, err := counted.Materialize(); err != nil {
		return nil, err
	}
	ctr := counted.ObsCounters()
	lr.m["datalog.cold_facts_derived"] = float64(ctr.Get("datalog.facts_derived"))
	lr.m["datalog.cold_firings"] = float64(ctr.Get("datalog.firings"))
	lr.m["datalog.cold_rounds"] = float64(ctr.Get("datalog.rounds"))
	return med, nil
}

// target is one server and the mediator behind it.
type target struct {
	srv *serve.Server
	med *mediator.Mediator
}

// uncached returns the request's body with the answer cache bypassed:
// spans time the computed path.
func uncached(r *request) (serve.QueryRequest, []byte) {
	fresh := r.QueryRequest
	fresh.NoCache = true
	return fresh, mustJSON(&fresh)
}

// traceReads is the sequential read pass of direct_sourceful,
// router_sourceful and live_update: each request class, cfg.reps times,
// through the front door and then layer by layer.
func (lr *layerRun) traceReads(sys *system, in *inputs, direct *system) error {
	ctx := context.Background()
	c := newClient()
	defer c.CloseIdleConnections()
	t, m := lr.t, lr.m
	var respBytes []float64
	var modes0 map[string]int64
	if sys.router != nil {
		modes0 = sys.router.Counters().Snapshot()
	}
	for rep := 0; rep < lr.cfg.reps; rep++ {
		for i := range in.Requests {
			if t.err != nil {
				return t.err
			}
			r := &in.Requests[i]
			id := lr.nextRequest()
			fresh, body := uncached(r)
			qbody, aux, err := parser.ParseQuery(r.Query)
			if err != nil {
				return err
			}
			parent := t.time("loopback", r.Name, id, 0, func() error {
				b, err := post(c, sys.base+"/v1/query", body)
				respBytes = append(respBytes, float64(len(b)))
				return err
			})
			// Which servers do the work for this request.
			targets := []target{{sys.servers[0], sys.meds[0]}}
			if sys.router != nil {
				parent = t.time("cluster.router_handler", r.Name, id, parent, func() error {
					return inMemory(sys.router.Handler(), http.MethodPost, "/v1/query", body)
				})
				var dec cluster.Decomposition
				t.time("cluster.classify", r.Name, id, parent, func() error {
					dec = cluster.Classify(qbody, aux, sys.replica.ViewRules())
					return nil
				})
				var owners []*cluster.Shard
				targets = targets[:0]
				for j, sh := range sys.router.Manager().Shards() {
					owns := dec.Mode == cluster.ModeScatter
					for _, src := range dec.Sources {
						if o, ok := sys.router.Manager().Owner(src); ok && o == sh {
							owns = true
						}
					}
					if owns {
						owners = append(owners, sh)
						targets = append(targets, target{sys.servers[j], sys.meds[j]})
					}
				}
				parent = t.slowest("cluster.shard_rtt", r.Name, id, parent, len(owners), func(j int) error {
					_, err := sys.router.Manager().Query(ctx, owners[j], "", &fresh)
					return err
				})
			}
			handler := t.slowest("serve.handler", r.Name, id, parent, len(targets), func(j int) error {
				return inMemory(targets[j].srv.Handler(), http.MethodPost, "/v1/query", body)
			})
			t.time("parser.parse_query", r.Name, id, handler, func() error {
				_, _, err := parser.ParseQuery(r.Query)
				return err
			})
			medQuery := t.slowest("mediator.query", r.Name, id, handler, len(targets), func(j int) error {
				_, err := targets[j].med.QueryCtx(ctx, r.Query, r.Vars...)
				return err
			})
			t.slowest("datalog.result_query", r.Name, id, medQuery, len(targets), func(j int) error {
				res, err := targets[j].med.Materialize()
				if err != nil {
					return err
				}
				_, err = res.QueryCtx(ctx, qbody, r.Vars)
				return err
			})
			t.slowest("mediator.planned_query", r.Name, id, handler, len(targets), func(j int) error {
				_, _, err := targets[j].med.PlannedQueryCtx(ctx, r.Query, r.Vars...)
				return err
			})
			if sys.router == nil {
				cachedReq := r.QueryRequest
				cachedReq.NoCache = false
				cbody := mustJSON(&cachedReq)
				t.time("serve.cache_fill", r.Name, id, 0, func() error {
					_, err := post(c, sys.base+"/v1/query", cbody)
					return err
				})
				t.time("serve.cache_hit", r.Name, id, 0, func() error {
					_, err := post(c, sys.base+"/v1/query", cbody)
					return err
				})
			}
			if direct != nil {
				t.time("direct.loopback", r.Name, id, 0, func() error {
					_, err := post(c, direct.base+"/v1/query", body)
					return err
				})
			}
		}
	}
	if t.err != nil {
		return t.err
	}

	// The same requests once more without spans: the difference is what
	// recording costs.
	plain := map[string][]float64{}
	for rep := 0; rep < lr.cfg.reps; rep++ {
		for i := range in.Requests {
			_, body := uncached(&in.Requests[i])
			t0 := time.Now()
			if _, err := post(c, sys.base+"/v1/query", body); err != nil {
				return err
			}
			plain[in.Requests[i].Name] = append(plain[in.Requests[i].Name], ms(time.Since(t0)))
		}
	}
	var plainMeds []float64
	for _, v := range plain {
		plainMeds = append(plainMeds, median(v))
	}

	loopback := t.classMean("loopback")
	m["loadgen.trace_overhead_ms"] = loopback - mean(plainMeds)
	m["parser.parse_query_us"] = t.classMean("parser.parse_query") * 1000
	m["serve.handler_ms"] = t.classMean("serve.handler")
	m["mediator.query_ms"] = t.classMean("mediator.query")
	m["serve.self_ms"] = m["serve.handler_ms"] - m["mediator.query_ms"]
	m["datalog.result_query_ms"] = t.classMean("datalog.result_query")
	m["mediator.planned_query_ms"] = t.classMean("mediator.planned_query")
	m["serve.resp_bytes_op"] = mean(respBytes)
	if sys.router == nil {
		m["serve.loopback_ms"] = loopback - m["serve.handler_ms"]
		m["serve.cache_hit_ms"] = t.classMean("serve.cache_hit")
		return nil
	}
	m["cluster.classify_us"] = t.classMean("cluster.classify") * 1000
	m["cluster.router_handler_ms"] = t.classMean("cluster.router_handler")
	m["cluster.shard_rtt_ms"] = t.classMean("cluster.shard_rtt")
	m["cluster.self_ms"] = m["cluster.router_handler_ms"] - m["cluster.shard_rtt_ms"]
	m["serve.loopback_ms"] = m["cluster.shard_rtt_ms"] - m["serve.handler_ms"]
	if direct != nil {
		m["cluster.router_overhead_ratio"] = loopback / t.classMean("direct.loopback")
	}
	lr.routerCounts(sys, modes0)
	return nil
}

// routerCounts reads how the router classified and served the pass's
// requests.
func (lr *layerRun) routerCounts(sys *system, before map[string]int64) {
	after := sys.router.Counters().Snapshot()
	for metric, counter := range map[string]string{
		"cluster.mode_count.replicated": "router.replicated",
		"cluster.mode_count.proxy":      "router.sources",
		"cluster.mode_count.scatter":    "router.scatter",
		"cluster.mode_count.gather":     "router.gather",
		"cluster.facts_fetches":         "router.facts_fetches",
		"cluster.facts_cache_hits":      "router.facts_cache_hits",
	} {
		lr.m[metric] = float64(after[counter] - before[counter])
	}
}

// factsBytes counts the bytes shards ship on /v1/facts.
type factsBytes struct{ n atomic.Int64 }

type countingWriter struct {
	http.ResponseWriter
	n *atomic.Int64
}

func (w countingWriter) Write(b []byte) (int, error) {
	w.n.Add(int64(len(b)))
	return w.ResponseWriter.Write(b)
}

func (f *factsBytes) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/facts" {
			w = countingWriter{w, &f.n}
		}
		h.ServeHTTP(w, r)
	})
}

// traceGather replays router_gather's cycle through the front door,
// then times what a gather is made of.
func (lr *layerRun) traceGather(sys *system, in *inputs, o *oracle, shipped *factsBytes) error {
	ctx := context.Background()
	c := newClient()
	defer c.CloseIdleConnections()
	t, m := lr.t, lr.m
	r := &in.Requests[0]
	before := sys.router.Counters().Snapshot()
	bytes0 := shipped.n.Load()
	qops := 0
	for n := 0; n < lr.cfg.cycles*len(in.Deltas); n++ {
		d := &in.Deltas[n%len(in.Deltas)]
		t.time("cluster.delta_route", d.Source, lr.nextRequest(), 0, func() error {
			_, err := post(c, sys.base+"/v1/delta", d.body)
			return err
		})
		for q := 0; q < 3; q++ {
			// The first Q after a delta finds that shard's dump dropped
			// and re-ships it; the other two evaluate over cached dumps.
			class := lr.w.Classes[min(q, 1)]
			t.time("loopback", class, lr.nextRequest(), 0, func() error {
				rows, err := query(c, sys.base, r.body)
				if err == nil && !o.check(d.State, 0, rows) {
					err = fmt.Errorf("wrong answer after delta %d", n)
				}
				return err
			})
			qops++
		}
	}
	if t.err != nil {
		return t.err
	}
	lr.routerCounts(sys, before)
	m["cluster.facts_bytes_op"] = float64(shipped.n.Load()-bytes0) / float64(qops)

	qbody, aux, err := parser.ParseQuery(r.Query)
	if err != nil {
		return err
	}
	var plain []float64
	for rep := 0; rep < lr.cfg.reps && t.err == nil; rep++ {
		id := lr.nextRequest()
		handler := t.time("cluster.router_handler", r.Name, id, 0, func() error {
			return inMemory(sys.router.Handler(), http.MethodPost, "/v1/query", r.body)
		})
		t.time("cluster.classify", r.Name, id, handler, func() error {
			cluster.Classify(qbody, aux, sys.replica.ViewRules())
			return nil
		})
		var dumps []mediator.SourceDump
		for j, sh := range sys.router.Manager().Shards() {
			rtt := t.time("cluster.facts_rtt", sh.ID, id, handler, func() error {
				fr, err := sys.router.Manager().Facts(ctx, sh)
				if err == nil {
					dumps = append(dumps, fr.Sources...)
				}
				return err
			})
			t.time("mediator.facts_dump", sh.ID, id, rtt, func() error {
				_, err := sys.meds[j].FactsDump(ctx)
				return err
			})
		}
		t.time("mediator.query_over_facts", r.Name, id, handler, func() error {
			_, err := sys.replica.QueryOverFacts(ctx, dumps, r.Query, r.Vars)
			return err
		})
		t.time("mediator.direct_gather", r.Name, id, 0, func() error {
			_, err := o.ref.QueryCtx(ctx, r.Query, r.Vars...)
			return err
		})
		t0 := time.Now()
		if _, err := query(c, sys.base, r.body); err != nil {
			return err
		}
		plain = append(plain, ms(time.Since(t0)))
	}
	if t.err != nil {
		return t.err
	}
	m["cluster.delta_route_ms"] = t.classMean("cluster.delta_route")
	m["cluster.classify_us"] = t.classMean("cluster.classify") * 1000
	m["cluster.router_handler_ms"] = t.classMean("cluster.router_handler")
	m["cluster.facts_rtt_ms"] = t.classMean("cluster.facts_rtt")
	m["mediator.facts_dump_ms"] = t.classMean("mediator.facts_dump")
	m["mediator.query_over_facts_ms"] = t.classMean("mediator.query_over_facts")
	m["mediator.direct_gather_ms"] = t.classMean("mediator.direct_gather")
	m["cluster.self_ms"] = m["cluster.router_handler_ms"] - m["mediator.query_over_facts_ms"]
	m["loadgen.trace_overhead_ms"] = median(t.byClass("loopback")["cached"]) - median(plain)
	return nil
}

// traceDeltas is live_update's write pass: the delta cycle applied
// directly to a restored mediator (engine counts, WAL cost, replay),
// then posted one by one through the front door with a subscriber
// listening.
func (lr *layerRun) traceDeltas(sys *system, in *inputs, cold *mediator.Mediator) error {
	t, m := lr.t, lr.m
	dir, err := dataDir(lr.cfg.outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	ws, err := buildSources(lr.cfg.seed, lr.w.Scale)
	if err != nil {
		return err
	}
	open := func(name string, noSync bool) (*persist.DB, error) {
		return persist.Open(filepath.Join(dir, name), &persist.Options{NoSync: noSync})
	}
	db, err := open("nosync", true)
	if err != nil {
		return err
	}
	defer func() { _ = db.Close() }()
	dbSync, err := open("sync", false)
	if err != nil {
		return err
	}
	defer func() { _ = dbSync.Close() }()
	t.time("persist.snapshot_save", "", 0, 0, func() error { return cold.SaveSnapshotTo(db) })
	m["persist.snapshot_bytes"] = float64(db.SnapshotSize())

	restore := func(name string) (*mediator.Mediator, error) {
		med, err := registered(ws, sourceNames)
		if err != nil {
			return nil, err
		}
		t.time(name, "", 0, 0, func() error {
			if rep := med.RestoreFromDB(db); !rep.Restored {
				return errors.New(rep.Reason)
			}
			return nil
		})
		return med, t.err
	}
	med, err := restore("persist.warm_restore")
	if err != nil {
		return err
	}

	// Apply two full delta cycles directly, capturing what the WAL
	// would be handed.
	var recs []*persist.WALRecord
	med.SetDeltaLogger(func(rec *persist.WALRecord) { recs = append(recs, rec) })
	for n := 0; n < 2*len(in.Deltas); n++ {
		d := &in.Deltas[n%len(in.Deltas)]
		kind := "delete"
		if d.Add {
			kind = "add"
		}
		t.time("mediator.apply_delta", kind, lr.nextRequest(), 0, func() error {
			rep, err := med.ApplySourceDelta(d.Source, d.adds, d.dels)
			if err != nil {
				return err
			}
			if rep.Full {
				m["mediator.delta_full_rebuilds"]++
			}
			if st := rep.Stats; st != nil {
				m["datalog.delta_overdeleted"] += float64(st.Overdeleted)
				m["datalog.delta_rederived"] += float64(st.Rederived)
				m["datalog.delta_firings"] += float64(st.Firings)
				m["datalog.delta_rounds"] += float64(st.Rounds)
			}
			return nil
		})
	}
	if t.err != nil {
		return t.err
	}

	// One cycle's records into the WAL behind the snapshot, with and
	// without fsync; then the restore that has to replay them.
	recs = recs[:len(in.Deltas)]
	walFile := filepath.Join(dir, "nosync", "wal.bin")
	size0, err := fileSize(walFile)
	if err != nil {
		return err
	}
	for _, rec := range recs {
		rec := rec
		t.time("persist.wal_append", "", 0, 0, func() error { return db.AppendWAL(rec) })
		t.time("persist.wal_append_sync", "", 0, 0, func() error { return dbSync.AppendWAL(rec) })
	}
	size1, err := fileSize(walFile)
	if err != nil {
		return err
	}
	if _, err := restore("persist.warm_restore_wal"); err != nil {
		return err
	}
	m["mediator.apply_delta_ms"] = t.classMean("mediator.apply_delta")
	m["persist.wal_append_us"] = t.classMean("persist.wal_append") * 1000
	m["persist.wal_append_sync_us"] = t.classMean("persist.wal_append_sync") * 1000
	m["persist.wal_bytes_op"] = float64(size1-size0) / float64(len(recs))
	m["persist.snapshot_save_ms"] = t.classMean("persist.snapshot_save")
	m["persist.warm_restore_ms"] = t.classMean("persist.warm_restore")
	m["persist.replay_ms"] = t.classMean("persist.warm_restore_wal") - m["persist.warm_restore_ms"]

	// Through the front door, one delta at a time.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := newClient()
	defer c.CloseIdleConnections()
	sub, err := load.Subscribe(ctx, c, sys.base, "", load.SubscribeRequest{Query: standingQuery, Vars: []string{"O", "C"}})
	if err != nil {
		return err
	}
	defer sub.Close()
	next := func(want string) (load.Event, error) {
		timeout := time.After(10 * time.Second)
		for {
			select {
			case ev, ok := <-sub.Events:
				if !ok {
					return ev, fmt.Errorf("stream closed waiting for %s", want)
				}
				if ev.Type == want {
					return ev, nil
				}
			case <-timeout:
				return load.Event{}, fmt.Errorf("no %s event within 10s", want)
			}
		}
	}
	if _, err := next("snapshot"); err != nil {
		return err
	}
	for n := 0; n < 2*len(in.Deltas) && t.err == nil; n++ {
		d := &in.Deltas[n%len(in.Deltas)]
		id := lr.nextRequest()
		var posted time.Time
		postSpan := t.time("serve.delta_post", "", id, 0, func() error {
			posted = time.Now()
			_, err := post(c, sys.base+"/v1/delta", d.body)
			return err
		})
		if t.err != nil {
			break
		}
		ev, err := next("delta")
		if err != nil {
			return err
		}
		// The notification usually lands before the POST's 200 has been
		// read, so its span starts with the POST's and may end inside it.
		start := t.spans[postSpan-1].StartNs
		t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: postSpan, Request: id, Name: "serve.notify_lag",
			StartNs: start, EndNs: start + ev.At.Sub(posted).Nanoseconds()})
	}
	if t.err != nil {
		return t.err
	}
	m["serve.delta_post_ms"] = t.classMean("serve.delta_post")
	m["serve.notify_lag_ms"] = t.classMean("serve.notify_lag")
	return nil
}

func fileSize(path string) (int64, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return st.Size(), nil
}

// concurrentPhase runs the workload's real traffic for a short untraced
// window, for the numbers only concurrency produces: wall-clock
// throughput and the latency distribution (medians over segments), GC,
// heap, and on live_update the answer cache's behaviour beside writes.
func (lr *layerRun) concurrentPhase(s *session, length time.Duration) (*loadPhase, error) {
	var before map[string]int64
	if s.sys.router == nil {
		before = s.sys.servers[0].Counters().Snapshot()
	}
	ph, err := s.runLoad(length, lr.cfg.segments, nil)
	if err != nil {
		return nil, err
	}
	m := lr.m
	for k, v := range ph.wallclock() {
		m[k] = v
	}
	if gcs := ph.mem1.NumGC - ph.mem0.NumGC; gcs > 0 {
		m["runtime.gc_pause_ms"] = float64(ph.mem1.PauseTotalNs-ph.mem0.PauseTotalNs) / 1e6 / float64(gcs)
	}
	m["runtime.heap_inuse_mb"] = float64(ph.mem1.HeapInuse) / (1 << 20)
	if ph.live != nil {
		after := s.sys.servers[0].Counters().Snapshot()
		diff := func(name string) float64 { return float64(after[name] - before[name]) }
		if lookups := diff("serve.cache_hits") + diff("serve.cache_misses") + diff("serve.cache_collapsed"); lookups > 0 {
			m["serve.cache_hit_ratio"] = diff("serve.cache_hits") / lookups
		}
		m["serve.cache_invalidations_source"] = diff("serve.cache_invalidations_source")
		m["serve.cache_entries_dropped"] = diff("serve.cache_entries_dropped")
		m["loadgen.late_p90_ms"] = percentileOf(ph.live.lateMs, 0.90)
	}
	return ph, nil
}

// tracingPairs is how many off/on segment pairs tracingOverhead runs.
const tracingPairs = 8

// tracingOverhead runs the window once more, switching the mediator's
// own tracing on for every second segment, and reports how much lower
// throughput is with tracing on: the median over adjacent off/on pairs,
// so a change in the box's speed during the window hits both sides of a
// pair alike.
func (lr *layerRun) tracingOverhead(s *session, length time.Duration) error {
	med := s.sys.meds[0]
	ph, err := s.runLoad(length, 2*tracingPairs, func(seg int) { med.EnableTracing(seg%2 == 1) })
	med.EnableTracing(false)
	if err != nil {
		return err
	}
	var ratios []float64
	for i := 0; i+1 < len(ph.st.Throughput); i += 2 {
		if off := ph.st.Throughput[i]; off > 0 {
			ratios = append(ratios, ph.st.Throughput[i+1]/off)
		}
	}
	if len(ratios) == 0 {
		return errors.New("tracing overhead: no segment pair completed an operation")
	}
	lr.m["obs.tracing_on_overhead_pct"] = 100 * (1 - median(ratios))
	return nil
}

// runTraced is one traced run.
func runTraced(w *workload, cfg runConfig) (*report, error) {
	lr := &layerRun{w: w, cfg: cfg, t: &tracer{t0: time.Now()}, m: map[string]float64{}}
	rep := &report{Header: newHeader(w, cfg, true)}
	cold, err := lr.setupLayers()
	if err != nil {
		return nil, err
	}
	shipped := &factsBytes{}
	var boot func(map[string]*wrapper.InMemory, string) (*system, error)
	if w.Name == "router_gather" {
		boot = func(ws map[string]*wrapper.InMemory, _ string) (*system, error) { return bootCluster(ws, shipped.wrap) }
	}
	s, err := openSession(w, cfg, boot)
	if err != nil {
		return nil, err
	}
	defer s.close()
	// live_update's reader runs closed-loop here, so the window reports
	// the read capacity beside the fixed write rate.
	s.readRate = 0

	// The concurrent window is a third of the run's; the sequential
	// passes that follow are counted, not timed.
	length := cfg.window / 3
	if _, err := lr.concurrentPhase(s, length); err != nil {
		return nil, err
	}
	switch w.Name {
	case "direct_sourceful":
		if err = lr.tracingOverhead(s, length); err == nil {
			err = lr.traceReads(s.sys, s.in, nil)
		}
	case "router_sourceful":
		var direct *system
		if direct, err = bootDirect(s.ws); err == nil {
			err = lr.traceReads(s.sys, s.in, direct)
			direct.stop()
		}
	case "router_gather":
		err = lr.traceGather(s.sys, s.in, s.o, shipped)
	case "live_update":
		if err = lr.traceReads(s.sys, s.in, nil); err == nil {
			err = lr.traceDeltas(s.sys, s.in, cold)
		}
	}
	if err != nil {
		return nil, err
	}
	s.verifyFinal()
	s.attempted += lr.req

	declared := map[string]bool{}
	for _, d := range perLayer {
		declared[d.Name] = true
	}
	for name := range lr.m {
		if !declared[name] {
			return nil, fmt.Errorf("traced run produced %q, which perLayer does not declare", name)
		}
	}
	rep.Result = s.result(perLayer, lr.m)
	if s.firstErr != nil {
		rep.FirstError = s.firstErr.Error()
	}
	err = writeAtomic(cfg.outDir, fmt.Sprintf("trace-%s.json", w.Name), struct {
		Header header `json:"header"`
		Spans  []span `json:"spans"`
	}{rep.Header, lr.t.spans})
	return rep, err
}
