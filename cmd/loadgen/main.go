// Command loadgen drives closed-loop load against a running medd and
// prints the merged statistics (throughput, latency quantiles, shed
// rate) as JSON: internal/load's closed loop, exposed for ad-hoc
// capacity runs.
//
// Usage:
//
//	loadgen [-addr URL | -addrs URL,URL,...] [-c N] [-duration D]
//	        [-q QUERY] [-vars V1,V2] [-planned] [-no-cache]
//	        [-timeout-ms N] [-api-key KEY] [-subscribe]
//	        [-abuse-q QUERY] [-abuse-c N] [-abuse-key KEY]
//
// With -addrs the same closed-loop load is driven against several
// targets at once — e.g. a medrouter next to the medd shards behind
// it, or each shard individually — with -c workers per target, and
// the report splits throughput and latency per target so the router's
// overhead and each shard's share are visible side by side.
//
// With -subscribe the run switches from closed-loop polling to the
// push path: -c standing queries are registered over POST
// /v1/subscribe and held open for -duration while another process (or
// a concurrent loadgen) mutates the federation; the report counts the
// snapshot/delta events each subscriber was pushed. Nothing polls —
// every row movement arrives as an SSE event.
//
// With -abuse-q the run becomes a two-tenant fairness probe: the
// honest tenant (-api-key) issues the main query while an abusive
// tenant (-abuse-key) concurrently hammers the abuse query at
// -abuse-c workers with the cache bypassed and no client deadline —
// the worst neighbour the admission gate must contain. Both tenants'
// stats are reported side by side; compare the honest p99 against a
// solo run to see what the noisy neighbour cost.
//
// Example:
//
//	medd -addr :8344 -tenants honest:1,abuser:1 -fact-limit 200000 &
//	loadgen -addr http://127.0.0.1:8344 -c 8 -duration 5s \
//	        -q "src_obj('SYNAPSE', O, C)" -vars O,C -api-key honest \
//	        -abuse-q "expensive(X, Y)" -abuse-c 64 -abuse-key abuser
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"modelmed/internal/load"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8344", "base URL of the medd service")
	addrs := flag.String("addrs", "", "comma-separated base URLs to load concurrently with a per-target report (overrides -addr)")
	c := flag.Int("c", 8, "closed-loop workers (concurrency)")
	dur := flag.Duration("duration", 5*time.Second, "run duration")
	q := flag.String("q", "src_obj('SYNAPSE', O, C)", "query to issue")
	vars := flag.String("vars", "", "comma-separated output variables")
	planned := flag.Bool("planned", false, "route through the planner (pruning + pushdown)")
	noCache := flag.Bool("no-cache", false, "bypass the answer cache")
	timeoutMs := flag.Int("timeout-ms", 0, "per-request timeout override in milliseconds")
	apiKey := flag.String("api-key", "", "X-API-Key identifying this run's tenant")
	subscribe := flag.Bool("subscribe", false, "hold -c standing queries open over SSE for -duration instead of polling")
	abuseQ := flag.String("abuse-q", "", "abusive tenant's query; enables the two-tenant fairness probe")
	abuseC := flag.Int("abuse-c", 64, "abusive tenant's concurrency")
	abuseKey := flag.String("abuse-key", "abuser", "abusive tenant's X-API-Key")
	flag.Parse()

	req := load.Request{Query: *q, Planned: *planned, NoCache: *noCache, TimeoutMs: *timeoutMs}
	for _, v := range strings.Split(*vars, ",") {
		if v = strings.TrimSpace(v); v != "" {
			req.Vars = append(req.Vars, v)
		}
	}

	if *addrs != "" {
		runMulti(*addrs, *apiKey, req, *c, *dur)
		return
	}

	base := strings.TrimRight(*addr, "/")
	if *subscribe {
		runSubscribe(base, *apiKey, req, *c, *dur)
		return
	}
	honestCfg := load.Config{
		BaseURL:     base,
		Requests:    []load.Request{req},
		Concurrency: *c,
		Duration:    *dur,
		APIKey:      *apiKey,
	}

	if *abuseQ == "" {
		stats, err := load.Run(honestCfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, stats.String())
		emit(stats)
		return
	}

	// Fairness probe: the abusive tenant issues a cache-bypassing,
	// deadline-free planned query — every request burns a full
	// evaluation until the server's own limits stop it.
	abuseCfg := load.Config{
		BaseURL:     base,
		Requests:    []load.Request{{Query: *abuseQ, Planned: true, NoCache: true}},
		Concurrency: *abuseC,
		Duration:    *dur,
		APIKey:      *abuseKey,
	}
	var wg sync.WaitGroup
	var honest, abusive load.Stats
	var honestErr, abusiveErr error
	wg.Add(2)
	go func() { defer wg.Done(); honest, honestErr = load.Run(honestCfg) }()
	go func() { defer wg.Done(); abusive, abusiveErr = load.Run(abuseCfg) }()
	wg.Wait()
	for _, err := range []error{honestErr, abusiveErr} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
	}
	fmt.Fprintln(os.Stderr, "honest  "+honest.String())
	fmt.Fprintln(os.Stderr, "abusive "+abusive.String())
	emit(map[string]load.Stats{"honest": honest, "abusive": abusive})
}

// runMulti drives the same closed loop against every target at once
// (-c workers each) and reports stats per target, so a router and its
// shards — or several shards — can be compared in one run.
func runMulti(addrs, apiKey string, req load.Request, c int, dur time.Duration) {
	var targets []string
	for _, a := range strings.Split(addrs, ",") {
		if a = strings.TrimSpace(a); a != "" {
			targets = append(targets, strings.TrimRight(a, "/"))
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: -addrs lists no targets")
		os.Exit(1)
	}
	stats := make([]load.Stats, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			stats[i], errs[i] = load.Run(load.Config{
				BaseURL:     target,
				Requests:    []load.Request{req},
				Concurrency: c,
				Duration:    dur,
				APIKey:      apiKey,
			})
		}(i, target)
	}
	wg.Wait()
	report := make(map[string]load.Stats, len(targets))
	for i, target := range targets {
		if errs[i] != nil {
			fmt.Fprintf(os.Stderr, "loadgen: %s: %v\n", target, errs[i])
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "%-40s %s\n", target, stats[i].String())
		report[target] = stats[i]
	}
	emit(report)
}

// subStats is the -subscribe mode report: pushed events merged across
// all subscribers.
type subStats struct {
	Subscribers int
	DurationMs  int64
	Snapshots   int64
	Deltas      int64
	RowsAdded   int64
	RowsRemoved int64
	Heartbeats  int64
	Errors      int64
}

// runSubscribe holds n standing queries open for dur and reports what
// the server pushed.
func runSubscribe(base, apiKey string, req load.Request, n int, dur time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), dur)
	defer cancel()
	client := &http.Client{}
	stats := subStats{Subscribers: n}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := load.Subscribe(ctx, client, base, apiKey, load.SubscribeRequest{
				Query: req.Query, Vars: req.Vars,
			})
			if err != nil {
				mu.Lock()
				stats.Errors++
				mu.Unlock()
				fmt.Fprintln(os.Stderr, "loadgen:", err)
				return
			}
			defer sub.Close()
			var local subStats
			for ev := range sub.Events {
				switch ev.Type {
				case "snapshot":
					local.Snapshots++
				case "delta":
					var d load.AnswerDelta
					if json.Unmarshal(ev.Data, &d) == nil {
						local.RowsAdded += int64(len(d.Added))
						local.RowsRemoved += int64(len(d.Removed))
					}
					local.Deltas++
				case "comment":
					local.Heartbeats++
				}
			}
			mu.Lock()
			stats.Snapshots += local.Snapshots
			stats.Deltas += local.Deltas
			stats.RowsAdded += local.RowsAdded
			stats.RowsRemoved += local.RowsRemoved
			stats.Heartbeats += local.Heartbeats
			mu.Unlock()
		}()
	}
	wg.Wait()
	stats.DurationMs = time.Since(start).Milliseconds()
	fmt.Fprintf(os.Stderr, "subscribe c=%d: %d snapshots, %d deltas (+%d/-%d rows), %d heartbeats, %d errors in %dms\n",
		stats.Subscribers, stats.Snapshots, stats.Deltas, stats.RowsAdded,
		stats.RowsRemoved, stats.Heartbeats, stats.Errors, stats.DurationMs)
	emit(stats)
	if stats.Errors > 0 {
		os.Exit(1)
	}
}

func emit(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}
