package main

// The cluster experiment measures the cost side of scale-out: the
// Section 5 serving mix driven through a medrouter-style query router
// over 1, 2 and 4 shards, against a direct single-mediator baseline.
// All shards share one host here, so the numbers isolate the router's
// overhead — the extra HTTP hop and fan-out on sourceful queries, and
// facts-shipping plus router-side evaluation on gathers — rather than
// demonstrating a multi-host throughput win. Writes
// BENCH_cluster.json.

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"time"

	"modelmed/internal/cluster"
	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

// clusterReport is the JSON shape of BENCH_cluster.json.
type clusterReport struct {
	SrcLatencyMs int64
	Concurrency  int
	Legs         []clusterLeg
}

// clusterLeg is one closed-loop run: Shards 0 means the direct
// single-mediator baseline (no router in front). Mix is "sourceful"
// (proxy + scatter) or "gather" (cross-shard evaluation at the
// router).
type clusterLeg struct {
	Label  string
	Mix    string
	Shards int
	load.Stats
}

// clusterSources builds the four-source federation (the Section 5
// trio plus one synthetic source so four shards each own one),
// identically seeded per call.
func clusterSources(srcLatency time.Duration) (map[string]wrapper.Wrapper, error) {
	ws, err := sources.Wrappers(2026, 40, 80, 24)
	if err != nil {
		return nil, err
	}
	byName := map[string]wrapper.Wrapper{}
	for _, w := range ws {
		byName[w.Name()] = w
	}
	model, err := sources.SyntheticSource("EXTRA00", 7, 40, []string{"ca1", "dentate_gyrus"})
	if err != nil {
		return nil, err
	}
	extra, err := wrapper.NewInMemory(model)
	if err != nil {
		return nil, err
	}
	byName["EXTRA00"] = extra
	if srcLatency > 0 {
		for n, w := range byName {
			byName[n] = wrapper.NewFaulty(w, wrapper.FaultConfig{Latency: srcLatency})
		}
	}
	return byName, nil
}

// bootShard starts one in-process shard service owning the named
// sources and returns its base URL plus a shutdown func.
func bootShard(id string, names []string, srcLatency time.Duration) (string, func(), error) {
	byName, err := clusterSources(srcLatency)
	if err != nil {
		return "", nil, err
	}
	med := mediator.New(sources.NeuroDM(), nil)
	for _, n := range names {
		w, ok := byName[n]
		if !ok {
			return "", nil, fmt.Errorf("cluster: unknown source %s", n)
		}
		if err := med.Register(w); err != nil {
			return "", nil, err
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		return "", nil, err
	}
	srv := serve.New(med, serve.Config{ShardID: id})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// bootRouter starts a router over the given shard URLs and returns its
// base URL plus a shutdown func.
func bootRouter(shardURLs []string) (string, func(), error) {
	var topo []cluster.ShardConfig
	for i, u := range shardURLs {
		topo = append(topo, cluster.ShardConfig{ID: fmt.Sprintf("shard%d", i), URL: u})
	}
	rep := mediator.New(sources.NeuroDM(), nil)
	if err := rep.DefineStandardViews(); err != nil {
		return "", nil, err
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Shards: topo, Replica: rep})
	if err != nil {
		return "", nil, err
	}
	if err := rt.Discover(context.Background()); err != nil {
		return "", nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: rt.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = hs.Close() }, nil
}

// sourcefulRequests is the Section 5 serving mix whose decomposition
// stays on the shards (proxy and scatter), cache-bypassing so every
// request exercises decomposition and the shard fan-out rather than
// the router's answer cache. This is the mix sharding is supposed to
// speed up: each shard evaluates only its partition, in parallel.
func sourcefulRequests() []load.Request {
	return []load.Request{
		{Query: sec5Query, Vars: []string{"N", "C"}, NoCache: true},
		{Query: `src_obj('SYNAPSE', O, C)`, Vars: []string{"O", "C"}, NoCache: true},
		{Query: `anchor(S, O, C), dm_isa_star(C, dendrite)`,
			Vars: []string{"S", "O", "C"}, NoCache: true},
	}
}

// gatherRequests is the cross-shard mode: the integrated aggregation
// view (at its real arity-5 shape) whose derivations span sources, so
// the router ships shard facts home and evaluates locally. This is
// the known cost of partitioning, reported honestly next to the
// sourceful speedup.
func gatherRequests() []load.Request {
	return []load.Request{
		{Query: `protein_distribution(Root, P, Org, T, N)`,
			Vars: []string{"Root", "P", "Org", "T", "N"}, NoCache: true},
	}
}

func clusterExp() error {
	const (
		srcLatency  = 2 * time.Millisecond
		concurrency = 8
		duration    = 2 * time.Second
	)
	partitions := map[int][][]string{
		1: {{"SYNAPSE", "NCMIR", "SENSELAB", "EXTRA00"}},
		2: {{"SYNAPSE", "SENSELAB"}, {"NCMIR", "EXTRA00"}},
		4: {{"SYNAPSE"}, {"NCMIR"}, {"SENSELAB"}, {"EXTRA00"}},
	}
	report := clusterReport{
		SrcLatencyMs: srcLatency.Milliseconds(),
		Concurrency:  concurrency,
	}
	mixes := []struct {
		name string
		reqs []load.Request
	}{
		{"sourceful", sourcefulRequests()},
		{"gather", gatherRequests()},
	}

	// Direct baseline: one mediator service holding every source, no
	// router in the path.
	base, stop, err := bootShard("", partitions[1][0], srcLatency)
	if err != nil {
		return err
	}
	for _, mix := range mixes {
		stats, err := load.Run(load.Config{
			BaseURL: base, Requests: mix.reqs, Concurrency: concurrency, Duration: duration,
		})
		if err != nil {
			stop()
			return err
		}
		leg := clusterLeg{Label: "direct/" + mix.name, Mix: mix.name, Stats: stats}
		report.Legs = append(report.Legs, leg)
		fmt.Printf("  %-18s %s\n", leg.Label, stats.String())
	}
	stop()

	for _, n := range []int{1, 2, 4} {
		var shardURLs []string
		var stops []func()
		for i, names := range partitions[n] {
			u, stop, err := bootShard(fmt.Sprintf("shard%d", i), names, srcLatency)
			if err != nil {
				return err
			}
			shardURLs = append(shardURLs, u)
			stops = append(stops, stop)
		}
		rbase, rstop, err := bootRouter(shardURLs)
		if err == nil {
			for _, mix := range mixes {
				var stats load.Stats
				stats, err = load.Run(load.Config{
					BaseURL: rbase, Requests: mix.reqs, Concurrency: concurrency, Duration: duration,
				})
				if err != nil {
					break
				}
				leg := clusterLeg{
					Label: fmt.Sprintf("%d-shard/%s", n, mix.name),
					Mix:   mix.name, Shards: n, Stats: stats,
				}
				report.Legs = append(report.Legs, leg)
				fmt.Printf("  %-18s %s\n", leg.Label, stats.String())
			}
			rstop()
		}
		for _, s := range stops {
			s()
		}
		if err != nil {
			return err
		}
	}

	if err := writeJSON("BENCH_cluster.json", &report); err != nil {
		return err
	}
	fmt.Println("  wrote BENCH_cluster.json")
	return nil
}
