package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

// serveReport is the JSON shape of BENCH_serve.json: the query
// service's answer cache, its behavior under a closed-loop concurrency
// sweep, and the graceful-drain accounting under live load.
type serveReport struct {
	Cache serveCacheLeg
	Sweep []serveSweepLeg
	Drain serveDrainLeg
}

// serveSweepLeg is one closed-loop run of the concurrency sweep,
// labeled with whether the answer cache was enabled.
type serveSweepLeg struct {
	CacheEnabled bool
	SrcLatencyMs int64
	load.Stats
}

type serveCacheLeg struct {
	Query        string
	SrcLatencyMs int64 // simulated per-call source latency
	UncachedNs   int64 // median latency, cache bypassed
	CachedNs     int64 // median latency, cache hit
	Speedup      float64
	Rows         int
}

type serveDrainLeg struct {
	Concurrency int
	Requests    int64
	Completed   int64 // any HTTP status received
	Shed        int64 // subset of Completed with 503
	// Dropped counts requests that died on a broken connection before
	// shutdown began — the drain criterion requires zero. The
	// authoritative server-side check is Started == Finished.
	Dropped int64
	// Refused counts post-shutdown connection errors: the listener was
	// already closed, so the request was never accepted — not a drop.
	Refused  int64
	Started  int64
	Finished int64
}

// newServeScenario boots a mediator over the Section 5 workload and a
// query service on a kernel-assigned port. srcLatency, when nonzero, is
// injected into every source call — the simulated network distance of a
// real federation, which makes admitted queries block in the fan-out
// instead of burning CPU (required for the admission gate, not the
// shared CPU, to be the bottleneck the sweep measures).
func newServeScenario(cfg serve.Config, srcLatency time.Duration) (*serve.Server, *http.Server, string, error) {
	med := mediator.New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(2026, 60, 160, 40)
	if err != nil {
		return nil, nil, "", err
	}
	for _, w := range ws {
		var reg wrapper.Wrapper = w
		if srcLatency > 0 {
			reg = wrapper.NewFaulty(w, wrapper.FaultConfig{Latency: srcLatency})
		}
		if err := med.Register(reg); err != nil {
			return nil, nil, "", err
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		return nil, nil, "", err
	}
	srv := serve.New(med, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return srv, hs, "http://" + ln.Addr().String(), nil
}

// sec5Query is the planned Section 5 step-1 shape: a classed SENSELAB
// access with two bindable selections, so the planner emits a pushdown
// step and every execution re-queries the wrapper (and so feels source
// latency — the others evaluate over already-translated facts).
const sec5Query = `src_obj('SENSELAB', N, neurotransmission), ` +
	`src_val('SENSELAB', N, organism, "rat"), ` +
	`src_val('SENSELAB', N, transmitting_compartment, parallel_fiber), ` +
	`anchor('SENSELAB', N, C)`

// sec5Requests is the serving mix over the Section 5 workload: the
// planned pushdown query, the integrated distribution view, and two
// source-vocabulary probes.
func sec5Requests(noCache bool) []load.Request {
	return []load.Request{
		{Query: sec5Query,
			Vars: []string{"N", "C"}, Planned: true, NoCache: noCache},
		{Query: "protein_distribution(P, C, A)", Vars: []string{"P", "C", "A"}, NoCache: noCache},
		{Query: "src_obj('SYNAPSE', O, C)", Vars: []string{"O", "C"}, NoCache: noCache},
		{Query: "anchor(S, O, C), dm_isa_star(C, dendrite)", Vars: []string{"S", "O", "C"}, NoCache: noCache},
	}
}

// timedRequest issues one query and returns (latency, status, rows).
func timedRequest(client *http.Client, base string, req load.Request) (time.Duration, int, int, error) {
	b, err := json.Marshal(req)
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	resp, err := client.Post(base+"/v1/query", "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, 0, 0, err
	}
	var out struct {
		Count int `json:"count"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	return time.Since(t0), resp.StatusCode, out.Count, nil
}

// medianLatency runs reps sequential requests and returns the median
// latency and the row count.
func medianLatency(client *http.Client, base string, req load.Request, reps int) (time.Duration, int, error) {
	lats := make([]time.Duration, 0, reps)
	var rows int
	for i := 0; i < reps; i++ {
		d, status, n, err := timedRequest(client, base, req)
		if err != nil {
			return 0, 0, err
		}
		if status != http.StatusOK {
			return 0, 0, fmt.Errorf("request %q: status %d", req.Query, status)
		}
		lats = append(lats, d)
		rows = n
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	return lats[len(lats)/2], rows, nil
}

// serveExp measures the mediator query service: answer-cache speedup
// on a repeated Section 5 query, throughput/latency/shed-rate under a
// closed-loop concurrency sweep, and zero-drop graceful drain under
// SIGTERM while load is running. Writes BENCH_serve.json.
func serveExp() error {
	rep := serveReport{}
	client := &http.Client{}

	// --- Leg 1: answer cache on a repeated planned query. The planned
	// pushdown re-queries its source on every execution; with a
	// simulated 15ms source round-trip, a cached answer amortizes
	// exactly that network distance.
	const srcLatency = 15 * time.Millisecond
	srv, hs, base, err := newServeScenario(serve.Config{}, srcLatency)
	if err != nil {
		return err
	}
	cacheQuery := load.Request{
		Query:   sec5Query,
		Vars:    []string{"N", "C"},
		Planned: true,
	}
	// Warm the materialization and the cache once.
	if _, _, _, err := timedRequest(client, base, cacheQuery); err != nil {
		return err
	}
	uncachedReq := cacheQuery
	uncachedReq.NoCache = true
	uncached, rows, err := medianLatency(client, base, uncachedReq, 15)
	if err != nil {
		return err
	}
	cachedLat, _, err := medianLatency(client, base, cacheQuery, 200)
	if err != nil {
		return err
	}
	rep.Cache = serveCacheLeg{
		Query:        cacheQuery.Query,
		SrcLatencyMs: srcLatency.Milliseconds(),
		UncachedNs:   uncached.Nanoseconds(),
		CachedNs:     cachedLat.Nanoseconds(),
		Speedup:      float64(uncached) / float64(cachedLat),
		Rows:         rows,
	}
	fmt.Printf("cache: uncached median %s vs cached median %s -> %.0fx (%d rows)\n",
		uncached.Round(time.Microsecond), cachedLat.Round(time.Microsecond),
		rep.Cache.Speedup, rows)
	_ = srv
	_ = hs.Close()

	// --- Leg 2: closed-loop concurrency sweep, cache on vs off, with a
	// deliberately small admission envelope (2 in flight + 2 queued) so
	// the shed path engages at the top concurrency level even when the
	// host's core count paces client arrivals. With the cache on, hits
	// bypass admission entirely, so the same envelope sheds almost
	// nothing — that contrast is the point of reporting both.
	for _, cacheOn := range []bool{true, false} {
		_, hs, base, err = newServeScenario(serve.Config{
			MaxInFlight: 2, MaxQueue: 2, RequestTimeout: 10 * time.Second,
			DisableCache: !cacheOn,
		}, srcLatency)
		if err != nil {
			return err
		}
		for _, c := range []int{4, 16, 64} {
			st, err := load.Run(load.Config{
				BaseURL:     base,
				Requests:    sec5Requests(false),
				Concurrency: c,
				Duration:    3 * time.Second,
			})
			if err != nil {
				return err
			}
			rep.Sweep = append(rep.Sweep, serveSweepLeg{
				CacheEnabled: cacheOn, SrcLatencyMs: srcLatency.Milliseconds(), Stats: st,
			})
			fmt.Printf("cache=%v %s\n", cacheOn, st.String())
		}
		_ = hs.Close()
	}

	// --- Leg 3: graceful drain under load. Mid-load the process
	// signals itself with SIGTERM (the daemon's shutdown path) and the
	// server drains: every accepted request runs to completion. Client
	// connection errors after the listener closed are refusals, not
	// drops; the authoritative zero-drop check is the server's own
	// started == finished accounting.
	srv, hs, base, err = newServeScenario(serve.Config{}, 0)
	if err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM)
	defer signal.Stop(sig)

	dl := serveDrainLeg{Concurrency: 8}
	var requests, completed, shed, refused, dropped int64
	var down atomic.Bool // set once shutdown begins
	var stop atomic.Bool
	drainClient := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	reqs := sec5Requests(false)
	var wg sync.WaitGroup
	for w := 0; w < dl.Concurrency; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; !stop.Load(); i++ {
				atomic.AddInt64(&requests, 1)
				_, status, _, err := timedRequest(drainClient, base, reqs[i%len(reqs)])
				switch {
				case err != nil && down.Load():
					atomic.AddInt64(&refused, 1)
				case err != nil:
					atomic.AddInt64(&dropped, 1)
				case status == http.StatusServiceUnavailable:
					atomic.AddInt64(&shed, 1)
					atomic.AddInt64(&completed, 1)
				default:
					atomic.AddInt64(&completed, 1)
				}
			}
		}()
	}

	time.Sleep(time.Second)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		return err
	}
	<-sig
	down.Store(true)
	drainStart := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	shutdownErr := hs.Shutdown(ctx)
	cancel()
	stop.Store(true)
	wg.Wait()
	if shutdownErr != nil {
		return fmt.Errorf("drain: %w", shutdownErr)
	}
	dl.Requests, dl.Completed, dl.Shed = requests, completed, shed
	dl.Refused, dl.Dropped = refused, dropped
	dl.Started, dl.Finished = srv.Started(), srv.Finished()
	if dl.Started != dl.Finished {
		dl.Dropped += dl.Started - dl.Finished
	}
	rep.Drain = dl
	fmt.Printf("drain: SIGTERM under load -> drained in %s; %d issued, %d completed (%d shed), %d refused after close, dropped %d (started %d == finished %d)\n",
		time.Since(drainStart).Round(time.Millisecond), dl.Requests, dl.Completed,
		dl.Shed, dl.Refused, dl.Dropped, dl.Started, dl.Finished)
	if dl.Dropped != 0 {
		return fmt.Errorf("graceful drain dropped %d in-flight requests", dl.Dropped)
	}

	return writeJSON("BENCH_serve.json", rep)
}
