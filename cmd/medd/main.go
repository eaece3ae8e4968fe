// Command medd is the mediator query service daemon: it builds the
// paper's Neuroscience scenario (ANATOM domain map plus the SYNAPSE,
// NCMIR and SENSELAB sources), registers the standard views, and
// serves the HTTP/JSON API of internal/serve — queries over the
// materialized base with admission control and an answer cache, the
// incremental maintenance bridge (/v1/delta, /v1/sync), plan analysis,
// health, Prometheus metrics and trace export.
//
// Usage:
//
//	medd [-addr HOST:PORT]
//	     [-synapse N -ncmir N -senselab N] [-seed S]
//	     [-source-timeout D -retries N]
//	     [-max-inflight N] [-max-queue N] [-request-timeout D]
//	     [-fact-limit N] [-round-limit N] [-wall-limit D]
//	     [-tenants KEY:W,KEY:W] [-rate KEY:RPS,KEY:RPS]
//	     [-shard-id ID] [-sources SYNAPSE,NCMIR]
//	     [-cache-entries N] [-no-cache] [-trace] [-log]
//	     [-stream] [-max-subs N]
//	     [-drain-timeout D] [-pprof HOST:PORT] [-data-dir DIR]
//
// -fact-limit, -round-limit and -wall-limit arm the engine's
// cooperative gas meter: any single evaluation deriving more facts,
// running more fixpoint rounds, or burning more wall time than the
// budget stops with a typed budget error, which the service maps to
// HTTP 422. -tenants lists the recognized API keys with their
// admission weights (e.g. "gold:3,free:1"); requests carrying an
// unlisted or missing X-API-Key share the default tenant. -rate adds
// a token-bucket limit per tenant key in requests/second (the special
// key "default" covers unlisted tenants); a drained bucket returns
// HTTP 429 before admission.
//
// -shard-id and -sources configure the daemon as one shard of a
// medrouter cluster: -sources restricts registration to a subset of
// the scenario's sources (the shard's partition) and -shard-id is the
// identity the daemon reports on /v1/healthz, which the router's
// discovery uses to build its source-to-shard map.
//
// -stream starts the live-federation feed loop: every source's
// versioned delta stream is consumed continuously and applied through
// the incremental maintenance machinery (with gap detection and
// targeted resync). Every change the mediator publishes, an applied
// batch included, is what the answer cache validates against and what
// wakes the standing queries registered over POST /v1/subscribe.
// -max-subs caps open subscriptions per tenant. Subscriptions work
// without -stream too — /v1/delta and /v1/sync wake them — but only
// -stream pushes source-side mutations without any client call.
//
// With -pprof the daemon additionally serves net/http/pprof on a
// separate listener (off by default; the main API listener never
// exposes the profiling handlers).
//
// With -data-dir the daemon is durable: it boots from the directory's
// snapshot + write-ahead log when they are valid (warm start — no
// source fan-out, no fixpoint run; sources whose data version moved
// are reconciled incrementally via SyncSources), logs every applied
// delta, and rotates a fresh snapshot when it drains.
//
// The daemon prints "medd listening on http://HOST:PORT" once the
// listener is bound (with -addr :0 the kernel-assigned port appears
// here), serves until SIGINT/SIGTERM, then drains: the listener
// closes, in-flight requests run to completion (bounded by
// -drain-timeout), and the process exits 0 having dropped none.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/mediator"
	"modelmed/internal/persist"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sig); err != nil {
		fmt.Fprintln(os.Stderr, "medd:", err)
		os.Exit(1)
	}
}

// run is the whole daemon, factored so tests can drive it: it returns
// once the server has drained after a signal on sig (or failed).
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("medd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8344", "listen address (use :0 for a kernel-assigned port)")
	nSyn := fs.Int("synapse", 50, "SYNAPSE measurement records")
	nNcm := fs.Int("ncmir", 100, "NCMIR protein amount records")
	nSl := fs.Int("senselab", 30, "SENSELAB neurotransmission records")
	seed := fs.Int64("seed", 11, "generator seed")
	srcTimeout := fs.Duration("source-timeout", 0, "per-source call deadline (0 = none; enables the fault-tolerance layer)")
	retries := fs.Int("retries", 0, "retries per transiently failing source call")
	maxInflight := fs.Int("max-inflight", 0, "concurrently evaluating queries (0 = default 8)")
	maxQueue := fs.Int("max-queue", 0, "admission wait-queue length (0 = default 64, negative = no queue)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline (0 = default 30s)")
	factLimit := fs.Int("fact-limit", 0, "max derived facts per evaluation (0 = unlimited); exceeding returns HTTP 422")
	roundLimit := fs.Int("round-limit", 0, "max fixpoint rounds per evaluation (0 = unlimited); exceeding returns HTTP 422")
	wallLimit := fs.Duration("wall-limit", 0, "max wall-clock time per evaluation (0 = unlimited); exceeding returns HTTP 422")
	stream := fs.Bool("stream", false, "consume every source's live delta feed (push-based incremental maintenance)")
	maxSubs := fs.Int("max-subs", 0, "open /v1/subscribe streams per tenant (0 = default 64, negative = none)")
	tenants := fs.String("tenants", "", "recognized tenants as KEY:WEIGHT pairs, comma-separated (e.g. gold:3,free:1)")
	rate := fs.String("rate", "", "per-tenant rate limits as KEY:RPS pairs, comma-separated (e.g. gold:100,default:10); exceeding returns HTTP 429")
	shardID := fs.String("shard-id", "", "shard identity reported on /v1/healthz (set when this daemon is one shard of a medrouter cluster)")
	srcNames := fs.String("sources", "", "comma-separated subset of SYNAPSE,NCMIR,SENSELAB to register (empty = all three)")
	cacheEntries := fs.Int("cache-entries", 0, "answer cache capacity (0 = default 256)")
	noCache := fs.Bool("no-cache", false, "disable the answer cache")
	trace := fs.Bool("trace", false, "enable span tracing and counter collection")
	reqLog := fs.Bool("log", false, "log every request to stderr")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; off when empty)")
	dataDir := fs.String("data-dir", "", "durable store directory (snapshot + WAL): warm start on boot, snapshot on drain (off when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof listener: %w", err)
		}
		defer pln.Close()
		fmt.Fprintf(stdout, "medd pprof on http://%s/debug/pprof/\n", pln.Addr())
		// http.DefaultServeMux carries the net/http/pprof handlers
		// registered by the blank import.
		go func() { _ = http.Serve(pln, nil) }()
	}

	weights, err := parseTenants(*tenants)
	if err != nil {
		return err
	}
	rates, err := serve.ParseRateSpec(*rate)
	if err != nil {
		return err
	}
	keep, err := parseSources(*srcNames)
	if err != nil {
		return err
	}

	med := mediator.New(sources.NeuroDM(), &mediator.Options{
		Engine: datalog.Options{
			Limits: datalog.Limits{
				MaxDerivedFacts: *factLimit,
				MaxRounds:       *roundLimit,
				MaxWallClock:    *wallLimit,
			},
		},
		SourceTimeout: *srcTimeout,
		MaxRetries:    *retries,
	})
	ws, err := sources.Wrappers(*seed, *nSyn, *nNcm, *nSl)
	if err != nil {
		return err
	}
	for _, w := range ws {
		if keep != nil && !keep[w.Name()] {
			continue
		}
		if err := med.Register(w); err != nil {
			return err
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		return err
	}
	if *trace {
		med.EnableTracing(true)
	}

	// With a data directory, boot is warm when the on-disk image is
	// usable: the materialized store is adopted with no source fan-out
	// and no fixpoint run, the WAL tail replays, and only sources whose
	// data version moved since the snapshot are re-pulled. Anything
	// wrong with the on-disk state (missing, corrupt, version-skewed,
	// program changed) falls back to a normal cold materialization.
	var db *persist.DB
	if *dataDir != "" {
		db, err = persist.Open(*dataDir, nil)
		if err != nil {
			return err
		}
		defer db.Close()
		rep := med.RestoreFromDB(db)
		if rep.Restored {
			if len(rep.StaleSources) > 0 {
				if _, err := med.SyncSources(); err != nil {
					return fmt.Errorf("reconcile stale sources: %w", err)
				}
			}
			fmt.Fprintf(stdout, "medd: warm start: %d facts, %d wal records replayed, %d stale sources synced\n",
				rep.Facts, rep.Replayed, len(rep.StaleSources))
		} else {
			fmt.Fprintf(stdout, "medd: cold start (%s)\n", rep.Reason)
			if _, err := med.Materialize(); err != nil {
				return err
			}
		}
		// The current state becomes the baseline image; every delta
		// applied while serving is write-ahead logged on top of it.
		if err := med.SaveSnapshotTo(db); err != nil {
			return fmt.Errorf("initial snapshot: %w", err)
		}
		med.SetDeltaLogger(func(rec *persist.WALRecord) {
			if err := db.AppendWAL(rec); err != nil {
				fmt.Fprintf(stderr, "medd: wal append: %v\n", err)
			}
		})
	}

	cfg := serve.Config{
		MaxInFlight:      *maxInflight,
		MaxQueue:         *maxQueue,
		RequestTimeout:   *reqTimeout,
		CacheEntries:     *cacheEntries,
		DisableCache:     *noCache,
		TenantWeights:    weights,
		MaxSubsPerTenant: *maxSubs,
		RateLimits:       rates,
		ShardID:          *shardID,
	}
	if *reqLog {
		cfg.Log = log.New(stderr, "medd: ", log.LstdFlags|log.Lmicroseconds)
	}
	srv := serve.New(med, cfg)

	// The feed loop turns source-side mutations into published moves,
	// which the answer cache sees on lookup and the standing queries
	// wake on, so a subscriber hears about a wrapper Mutate without
	// anyone calling /v1/delta or /v1/sync.
	var feeds *mediator.Feeds
	if *stream {
		if _, err := med.Materialize(); err != nil {
			return err
		}
		feeds = med.StartFeeds(context.Background(), mediator.FeedOptions{
			OnError: func(source string, err error) {
				fmt.Fprintf(stderr, "medd: feed %s: %v\n", source, err)
			},
		})
		defer feeds.Stop()
		fmt.Fprintf(stdout, "medd: streaming feeds on %d sources\n", len(feeds.Sources))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "medd listening on http://%s\n", ln.Addr())
	fmt.Fprintf(stdout, "medd: %d sources, %d concepts, cache=%v\n",
		len(med.Sources()), len(med.DomainMap().Concepts()), !*noCache)

	hs := &http.Server{Handler: srv.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "medd: %v: draining (%d in flight)\n",
			s, srv.Started()-srv.Finished())
		// Feeds stop before the HTTP drain so no new reports race the
		// snapshot; subscriptions close next or Shutdown would wait on
		// their open SSE connections forever.
		if feeds != nil {
			feeds.Stop()
		}
		srv.BeginDrain()
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		if started, finished := srv.Started(), srv.Finished(); started != finished {
			return fmt.Errorf("drain dropped requests: started %d, finished %d", started, finished)
		}
		if db != nil {
			// Traffic has stopped: rotate a fresh image so the next boot
			// warm-starts with an empty WAL. Failure is not fatal — the
			// old snapshot plus the logged deltas still reach this state.
			if err := med.SaveSnapshotTo(db); err != nil {
				fmt.Fprintf(stderr, "medd: drain snapshot: %v\n", err)
			} else {
				fmt.Fprintf(stdout, "medd: snapshot saved to %s\n", db.Dir())
			}
		}
		fmt.Fprintf(stdout, "medd: drained, served %d requests\n", srv.Finished())
		return nil
	}
}

// parseSources parses the -sources flag: a comma-separated subset of
// the scenario's source names. nil means "all".
func parseSources(spec string) (map[string]bool, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	known := map[string]bool{"SYNAPSE": true, "NCMIR": true, "SENSELAB": true}
	out := make(map[string]bool)
	for _, part := range strings.Split(spec, ",") {
		name := strings.ToUpper(strings.TrimSpace(part))
		if name == "" {
			continue
		}
		if !known[name] {
			return nil, fmt.Errorf("sources: unknown source %q (want a subset of SYNAPSE,NCMIR,SENSELAB)", part)
		}
		out[name] = true
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("sources: no source names in %q", spec)
	}
	return out, nil
}

// parseTenants parses the -tenants flag: comma-separated KEY:WEIGHT
// pairs (weight optional, default 1).
func parseTenants(spec string) (map[string]int, error) {
	if strings.TrimSpace(spec) == "" {
		return nil, nil
	}
	out := make(map[string]int)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, wstr, found := strings.Cut(part, ":")
		key = strings.TrimSpace(key)
		if key == "" {
			return nil, fmt.Errorf("tenants: empty key in %q", part)
		}
		w := 1
		if found {
			var err error
			w, err = strconv.Atoi(strings.TrimSpace(wstr))
			if err != nil || w < 1 {
				return nil, fmt.Errorf("tenants: bad weight in %q (want a positive integer)", part)
			}
		}
		out[key] = w
	}
	return out, nil
}
