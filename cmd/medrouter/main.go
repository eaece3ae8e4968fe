// Command medrouter fronts a sharded mediator cluster: each shard is
// a medd daemon owning a partition of the sources (-shard-id,
// -sources), and the router serves the same /v1/query, /v1/delta and
// /v1/sync HTTP/JSON API over the union of them.
//
// Usage:
//
//	medrouter -shards URL[,ID=URL...]
//	          [-addr HOST:PORT]
//	          [-request-timeout D]
//	          [-rate KEY:RPS,KEY:RPS]
//	          [-fail-threshold N] [-cooldown D]
//	          [-log] [-drain-timeout D]
//
// On boot the router probes every shard's /healthz to learn which
// sources it owns, and holds its own replica of the static knowledge
// (domain map, closure rules, views) so queries decompose into
// per-shard subplans: replicated-only queries are answered locally,
// single-source queries proxy to the owning shard, queries with one
// source variable scatter to all shards and union the answers, and
// cross-source joins or aggregates gather the shards' fact dumps into
// the router's replica and evaluate there. A delta is forwarded to the
// owning shard only, and patches the router's dump of that source. The
// router keeps no answer cache: each shard's own cache, which
// validates by the versions the shard publishes, answers a repeated
// proxy or scatter request, and a proxy relays the shard's "cached"
// flag.
//
// A downed shard (tracked by internal/breaker: the shard is skipped
// for -cooldown once -fail-threshold consecutive calls have failed,
// and after that the next call's result decides) degrades service
// instead of breaking it:
// scatter and gather answers that tolerate a missing partition come
// back flagged "partial" with per-shard reports, while queries whose
// answer would be wrong without the missing facts — proxies to the
// dead owner, aggregates, negation — fail with a 5xx.
//
// The daemon prints "medrouter listening on http://HOST:PORT" once
// bound, serves until SIGINT/SIGTERM, then drains in-flight requests
// (bounded by -drain-timeout) and exits 0.
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
	"os"
	"os/signal"
	"syscall"
	"time"

	"modelmed/internal/breaker"
	"modelmed/internal/cluster"
	"modelmed/internal/mediator"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
)

func main() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, os.Stderr, sig); err != nil {
		fmt.Fprintln(os.Stderr, "medrouter:", err)
		os.Exit(1)
	}
}

// run is the whole daemon, factored so tests can drive it: it returns
// once the server has drained after a signal on sig (or failed).
func run(args []string, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("medrouter", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8345", "listen address (use :0 for a kernel-assigned port)")
	shards := fs.String("shards", "", "shard base URLs, comma-separated, each URL or ID=URL (required)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request deadline, shard calls included (0 = default 30s)")
	rate := fs.String("rate", "", "per-tenant rate limits as KEY:RPS pairs, comma-separated (e.g. gold:100,default:10); exceeding returns HTTP 429")
	failThreshold := fs.Int("fail-threshold", 0, "consecutive shard failures before the breaker opens (0 = default 1)")
	cooldown := fs.Duration("cooldown", 0, "how long an open breaker waits before the next request probes the shard (0 = default 500ms)")
	reqLog := fs.Bool("log", false, "log every request to stderr")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "grace period for in-flight requests on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *shards == "" {
		return errors.New("-shards is required (e.g. -shards http://127.0.0.1:8344,http://127.0.0.1:8346)")
	}
	topo, err := cluster.ParseShardSpec(*shards)
	if err != nil {
		return err
	}
	rates, err := serve.ParseRateSpec(*rate)
	if err != nil {
		return err
	}

	// The replica holds exactly the knowledge every shard replicates:
	// the domain map with its closure rules and the standard views — no
	// sources. Replicated-only queries never leave the router, and the
	// same rule graph drives query decomposition.
	rep := mediator.New(sources.NeuroDM(), nil)
	if err := rep.DefineStandardViews(); err != nil {
		return err
	}

	cfg := cluster.RouterConfig{
		Shards:         topo,
		Replica:        rep,
		RequestTimeout: *reqTimeout,
		RateLimits:     rates,
		Breaker:        breaker.Config{Threshold: *failThreshold, Cooldown: *cooldown},
	}
	if *reqLog {
		cfg.Log = log.New(stderr, "medrouter: ", log.LstdFlags|log.Lmicroseconds)
	}
	rt, err := cluster.NewRouter(cfg)
	if err != nil {
		return err
	}

	// Boot discovery learns each shard's source set. An unreachable
	// shard is not fatal — it starts out tripped and the first request
	// after the cooldown re-probes it.
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	err = rt.Discover(dctx)
	cancel()
	if err != nil {
		// A topology conflict (two shards claiming one source) is fatal;
		// mere unreachability is not.
		return err
	}
	for _, sh := range rt.Manager().Shards() {
		if rep := rt.Manager().Report(sh); rep.Status != "ok" {
			fmt.Fprintf(stderr, "medrouter: shard %s unreachable: %s (degraded start)\n", sh.ID, rep.Error)
		}
	}
	srcs := rt.Manager().Sources()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "medrouter listening on http://%s\n", ln.Addr())
	fmt.Fprintf(stdout, "medrouter: %d shards, %d sources\n", len(rt.Manager().Shards()), len(srcs))
	for _, sh := range rt.Manager().Shards() {
		fmt.Fprintf(stdout, "medrouter: shard %s at %s owns %v\n", sh.ID, sh.URL, sh.Sources())
	}

	hs := &http.Server{Handler: rt.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.Serve(ln) }()

	select {
	case err := <-errCh:
		return err
	case s := <-sig:
		fmt.Fprintf(stdout, "medrouter: %v: draining\n", s)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			return fmt.Errorf("drain: %w", err)
		}
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		fmt.Fprintf(stdout, "medrouter: drained\n")
		return nil
	}
}
