package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// tenantReport is the JSON shape of BENCH_tenant.json: whether the
// per-tenant deficit round-robin admission gate contains an abusive
// neighbour, and what the engine's cooperative gas checks cost when
// nothing is near a limit.
type tenantReport struct {
	Fairness tenantFairnessLeg
	Overhead tenantOverheadLeg
}

// tenantFairnessLeg compares the honest tenant's latency alone against
// its latency while an abusive tenant floods the same server with
// deadline-free, cache-bypassing runaway queries that only the gas
// meter stops.
type tenantFairnessLeg struct {
	MaxInFlight      int
	Weights          map[string]int
	FactLimit        int
	AbuseConcurrency int
	AbuseQuery       string
	HonestBaseline   load.Stats
	HonestContended  load.Stats
	Abusive          load.Stats
	// P99Ratio is contended honest p99 over baseline honest p99 — the
	// noisy-neighbour cost the admission gate failed to absorb.
	P99Ratio float64
}

// tenantOverheadLeg times the axiom-closure fixpoint (serial,
// compiled) with the gas meter disarmed vs armed with budgets far from
// exhaustion: the price every well-behaved query pays for the
// protection.
type tenantOverheadLeg struct {
	Workload    string
	LimitsOffNs int64
	LimitsOnNs  int64
	OverheadPct float64
	FactLimit   int
	RoundLimit  int
}

// newTenantScenario is newServeScenario with engine options exposed,
// so the fairness leg can arm the gas meter that bounds the abusive
// tenant's per-request slot hold time.
func newTenantScenario(cfg serve.Config, eng datalog.Options, srcLatency time.Duration) (*serve.Server, *http.Server, string, error) {
	med := mediator.New(sources.NeuroDM(), &mediator.Options{Engine: eng})
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

// abuseQuery is a runaway by construction: an unconstrained three-way
// cross-product over every source object (~17.5M rows at this
// scenario's sizes). No client deadline is set; only the engine's gas
// meter ends each evaluation.
const abuseQuery = `src_obj(S1, O1, C1), src_obj(S2, O2, C2), src_obj(S3, O3, C3)`

// tenantExp measures multi-tenant admission fairness and the
// uncontended cost of the gas meter. Writes BENCH_tenant.json.
func tenantExp() error {
	rep := tenantReport{}

	// --- Leg 1: abusive-vs-honest fairness. The honest tenant runs the
	// planned Section 5 query (feels the simulated source round-trip,
	// bypasses the cache so every request crosses the admission gate).
	// The abusive tenant floods the same gate at much higher
	// concurrency with the cross-product runaway — uncached,
	// deadline-free, each request burning its full gas budget before
	// the 422. Weights encode the operator's policy: the honest tenant
	// is entitled to 3 of every 4 slots while backlogged.
	const (
		honestKey  = "honest"
		abuserKey  = "abuser"
		srcLatency = 30 * time.Millisecond
		abuseC     = 64
		// factLimit bounds how long one abusive request can hold a
		// slot: admission is non-preemptive, so deficit round-robin is
		// slot-count fair and the honest tenant's contended latency
		// grows by one abusive service time per rotation — the budget
		// is what keeps that service time on the honest queries' own
		// scale. It must still clear the shared materialization (~8k
		// firings at this scenario's sizes).
		factLimit = 12_000
	)
	limits := datalog.Limits{MaxDerivedFacts: factLimit, MaxRounds: 10_000}
	weights := map[string]int{honestKey: 3, abuserKey: 1}
	cfg := serve.Config{
		MaxInFlight:    2,
		MaxQueue:       96,
		RequestTimeout: 10 * time.Second,
		TenantWeights:  weights,
	}
	eng := datalog.Options{Limits: limits}

	honestReq := load.Request{
		Query: sec5Query, Vars: []string{"N", "C"}, Planned: true, NoCache: true,
	}
	runHonest := func(base string, d time.Duration) (load.Stats, error) {
		return load.Run(load.Config{
			BaseURL:     base,
			Requests:    []load.Request{honestReq},
			Concurrency: 8,
			Duration:    d,
			APIKey:      honestKey,
		})
	}

	// Baseline: honest tenant alone on a fresh server.
	_, hs, base, err := newTenantScenario(cfg, eng, srcLatency)
	if err != nil {
		return err
	}
	if _, _, _, err := timedRequest(&http.Client{}, base, honestReq); err != nil {
		return err // warm the materialization outside the measurement
	}
	baseline, err := runHonest(base, 4*time.Second)
	if err != nil {
		return err
	}
	_ = hs.Close()
	fmt.Printf("honest alone      %s\n", baseline.String())

	// Contended: same server shape, honest and abusive concurrently.
	_, hs, base, err = newTenantScenario(cfg, eng, srcLatency)
	if err != nil {
		return err
	}
	if _, _, _, err := timedRequest(&http.Client{}, base, honestReq); err != nil {
		return err
	}
	var wg sync.WaitGroup
	var contended, abusive load.Stats
	var contErr, abuseErr error
	wg.Add(2)
	go func() { defer wg.Done(); contended, contErr = runHonest(base, 4*time.Second) }()
	go func() {
		defer wg.Done()
		abusive, abuseErr = load.Run(load.Config{
			BaseURL:     base,
			Requests:    []load.Request{{Query: abuseQuery, NoCache: true}},
			Concurrency: abuseC,
			Duration:    4 * time.Second,
			APIKey:      abuserKey,
		})
	}()
	wg.Wait()
	_ = hs.Close()
	if contErr != nil {
		return contErr
	}
	if abuseErr != nil {
		return abuseErr
	}
	fmt.Printf("honest contended  %s\n", contended.String())
	fmt.Printf("abusive           %s\n", abusive.String())

	leg := tenantFairnessLeg{
		MaxInFlight:      cfg.MaxInFlight,
		Weights:          weights,
		FactLimit:        factLimit,
		AbuseConcurrency: abuseC,
		AbuseQuery:       abuseQuery,
		HonestBaseline:   baseline,
		HonestContended:  contended,
		Abusive:          abusive,
	}
	if baseline.P99Ms > 0 {
		leg.P99Ratio = contended.P99Ms / baseline.P99Ms
	}
	rep.Fairness = leg
	fmt.Printf("fairness: honest p99 %.2fms alone vs %.2fms contended -> ratio %.2fx (abusive budget-kills: %d)\n",
		baseline.P99Ms, contended.P99Ms, leg.P99Ratio, abusive.Budget)

	// --- Leg 2: gas-check overhead when nothing is near a limit. The
	// axiom-closure fixpoint (the parallel experiment's workload 1) runs
	// serial and compiled, once with the meter disarmed (no limits, no
	// cancellable context — the nil-limiter fast path) and once armed
	// with budgets ~200x beyond what the run spends, so every check
	// executes and none fires.
	closure := func(lim datalog.Limits, ctx context.Context) error {
		e := datalog.NewEngine(&datalog.Options{Limits: lim})
		const width, chain = 8, 120
		for g := 0; g < width; g++ {
			edge := fmt.Sprintf("e%d", g)
			tc := fmt.Sprintf("t%d", g)
			for i := 0; i < chain; i++ {
				if err := e.AddFact(edge, term.Int(int64(i)), term.Int(int64(i+1))); err != nil {
					return err
				}
			}
			if err := e.AddRules(
				datalog.NewRule(datalog.Lit(tc, term.Var("X"), term.Var("Y")),
					datalog.Lit(edge, term.Var("X"), term.Var("Y"))),
				datalog.NewRule(datalog.Lit(tc, term.Var("X"), term.Var("Y")),
					datalog.Lit(tc, term.Var("X"), term.Var("Z")),
					datalog.Lit(edge, term.Var("Z"), term.Var("Y"))),
			); err != nil {
				return err
			}
		}
		res, err := e.RunCtx(ctx)
		if err != nil {
			return err
		}
		if res.Store.Count("t0/2") != chain*(chain+1)/2 {
			return fmt.Errorf("closure incomplete")
		}
		return nil
	}
	best := func(reps int, fn func() error) (time.Duration, error) {
		var bestD time.Duration
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			if d := time.Since(start); bestD == 0 || d < bestD {
				bestD = d
			}
		}
		return bestD, nil
	}

	off, err := best(5, func() error { return closure(datalog.Limits{}, context.Background()) })
	if err != nil {
		return err
	}
	armed := datalog.Limits{MaxDerivedFacts: 100_000_000, MaxRounds: 1_000_000}
	ctx, cancel := context.WithCancel(context.Background())
	on, err := best(5, func() error { return closure(armed, ctx) })
	cancel()
	if err != nil {
		return err
	}
	rep.Overhead = tenantOverheadLeg{
		Workload:    "fixpoint/axiom-closure (serial, compiled)",
		LimitsOffNs: off.Nanoseconds(),
		LimitsOnNs:  on.Nanoseconds(),
		OverheadPct: (float64(on)/float64(off) - 1) * 100,
		FactLimit:   armed.MaxDerivedFacts,
		RoundLimit:  armed.MaxRounds,
	}
	fmt.Printf("overhead: limits off %v vs armed %v -> %+.2f%%\n",
		off.Round(time.Microsecond), on.Round(time.Microsecond), rep.Overhead.OverheadPct)

	return writeJSON("BENCH_tenant.json", rep)
}
