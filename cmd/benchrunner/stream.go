package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sort"
	"time"

	"modelmed/internal/gcm"
	"modelmed/internal/load"
	"modelmed/internal/mediator"
	"modelmed/internal/serve"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// streamReport is the JSON shape of BENCH_stream.json: the push path's
// change-to-notification latency — from the instant a source wrapper
// commits a mutation to the instant a standing query's SSE client
// receives the corresponding answer delta — at 1, 16 and 64 concurrent
// subscribers. The whole pipeline is live: wrapper delta feed →
// mediator feed loop (ApplyStreamBatch) → cache invalidation +
// subscriber wakeups → per-subscriber re-evaluation and diff → SSE
// write. No client polls at any point.
type streamReport struct {
	Rounds int
	Legs   []streamLeg
}

// streamLeg is one subscriber-concurrency level. Quantiles are over
// all (round x subscriber) notification latencies.
type streamLeg struct {
	Subscribers int
	Samples     int   // latency samples collected (rounds x subscribers)
	Missed      int   // subscriber-rounds with no delta within the wait cap
	Deltas      int64 // server-side serve.sub_deltas across the leg
	P50Ms       float64
	P90Ms       float64
	P99Ms       float64
	MaxMs       float64
}

// streamScenario boots the serve stack with live feeds: the mediator
// materializes once, every wrapper's delta stream is consumed by the
// feed loop, and each applied batch flows into Server.ApplyReport.
func streamScenario() (*serve.Server, *mediator.Feeds, func(), []*wrapper.InMemory, string, error) {
	med := mediator.New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(2026, 60, 160, 40)
	if err != nil {
		return nil, nil, nil, nil, "", err
	}
	for _, w := range ws {
		if err := med.Register(w); err != nil {
			return nil, nil, nil, nil, "", err
		}
	}
	if err := med.DefineStandardViews(); err != nil {
		return nil, nil, nil, nil, "", err
	}
	if _, err := med.Materialize(); err != nil {
		return nil, nil, nil, nil, "", err
	}
	srv := serve.New(med, serve.Config{MaxSubsPerTenant: 128})
	feeds := med.StartFeeds(context.Background(), mediator.FeedOptions{
		OnReport: func(rep *mediator.DeltaReport) { srv.ApplyReport(rep) },
	})
	hs, base, err := listenAndServe(srv)
	if err != nil {
		feeds.Stop()
		return nil, nil, nil, nil, "", err
	}
	shutdown := func() {
		feeds.Stop()
		srv.BeginDrain()
		_ = hs.Close()
	}
	return srv, feeds, shutdown, ws, base, nil
}

// listenAndServe binds the server on a kernel-assigned port.
func listenAndServe(srv *serve.Server) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: srv.Handler()}
	go func() { _ = hs.Serve(ln) }()
	return hs, "http://" + ln.Addr().String(), nil
}

// streamExp measures the live-federation push path end to end and
// writes BENCH_stream.json.
func streamExp() error {
	const rounds = 20
	rep := streamReport{Rounds: rounds}
	fmt.Printf("change-to-notification latency over %d mutation rounds per level\n", rounds)

	for _, c := range []int{1, 16, 64} {
		srv, feeds, shutdown, ws, base, err := streamScenario()
		if err != nil {
			return err
		}
		leg, err := streamLegRun(srv, ws[0], base, c, rounds)
		shutdown()
		if err != nil {
			return err
		}
		if len(feeds.Sources) != len(ws) {
			return fmt.Errorf("feed loop covers %d of %d sources", len(feeds.Sources), len(ws))
		}
		rep.Legs = append(rep.Legs, leg)
		fmt.Printf("  c=%-3d %4d samples (%d missed), server deltas %d, p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms\n",
			leg.Subscribers, leg.Samples, leg.Missed, leg.Deltas,
			leg.P50Ms, leg.P90Ms, leg.P99Ms, leg.MaxMs)
	}
	return writeJSON("BENCH_stream.json", rep)
}

// streamLegRun opens c subscribers on the SYNAPSE object query, then
// alternates add/remove mutations on the live SYNAPSE wrapper and
// times each subscriber's pushed delta against the mutation instant.
func streamLegRun(srv *serve.Server, syn *wrapper.InMemory, base string, c, rounds int) (streamLeg, error) {
	leg := streamLeg{Subscribers: c}
	client := &http.Client{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	subs := make([]*load.Subscription, c)
	for i := range subs {
		sub, err := load.Subscribe(ctx, client, base, "", load.SubscribeRequest{
			Query: "src_obj('SYNAPSE', O, C)", Vars: []string{"O", "C"},
		})
		if err != nil {
			return leg, err
		}
		defer sub.Close()
		// The snapshot confirms the subscription is registered before
		// any mutation fires.
		if _, err := nextEvent(sub, "snapshot", 10*time.Second); err != nil {
			return leg, err
		}
		subs[i] = sub
	}
	deltasBefore := srv.Counters().Get("serve.sub_deltas")

	var lats []time.Duration
	for r := 0; r < rounds; r++ {
		id := term.Atom(fmt.Sprintf("bench_stream_%d", r))
		add := r%2 == 0
		prev := term.Atom(fmt.Sprintf("bench_stream_%d", r-1))
		t0 := time.Now()
		syn.Mutate(func(m *gcm.Model) {
			if add {
				m.AddObject(gcm.Object{ID: id, Class: "spine_measurement",
					Values: map[string][]term.Term{"location": {term.Atom("dendrite")}}})
				return
			}
			for i, o := range m.Objects {
				if o.ID.Equal(prev) {
					m.Objects[i] = m.Objects[len(m.Objects)-1]
					m.Objects = m.Objects[:len(m.Objects)-1]
					return
				}
			}
		})
		for _, sub := range subs {
			ev, err := nextEvent(sub, "delta", 10*time.Second)
			if err != nil {
				leg.Missed++
				continue
			}
			lats = append(lats, ev.At.Sub(t0))
		}
	}
	leg.Samples = len(lats)
	leg.Deltas = srv.Counters().Get("serve.sub_deltas") - deltasBefore
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		q := func(p float64) float64 {
			i := int(p * float64(len(lats)))
			if i >= len(lats) {
				i = len(lats) - 1
			}
			return float64(lats[i].Nanoseconds()) / 1e6
		}
		leg.P50Ms, leg.P90Ms, leg.P99Ms = q(0.50), q(0.90), q(0.99)
		leg.MaxMs = float64(lats[len(lats)-1].Nanoseconds()) / 1e6
	}
	if leg.Samples == 0 {
		return leg, fmt.Errorf("no notification ever arrived (c=%d)", c)
	}
	return leg, nil
}

// nextEvent waits for the next event of the wanted type, skipping
// heartbeats; any other typed event (or a decode failure) is an error,
// so a degenerate leg cannot silently report optimistic latencies.
func nextEvent(sub *load.Subscription, want string, timeout time.Duration) (load.Event, error) {
	deadline := time.After(timeout)
	for {
		select {
		case ev, ok := <-sub.Events:
			if !ok {
				return load.Event{}, fmt.Errorf("stream closed waiting for %s (%v)", want, sub.Err())
			}
			if ev.Type == "comment" {
				continue
			}
			if ev.Type != want {
				return load.Event{}, fmt.Errorf("got %s event waiting for %s", ev.Type, want)
			}
			var probe json.RawMessage
			if err := json.Unmarshal(ev.Data, &probe); err != nil {
				return load.Event{}, fmt.Errorf("%s payload: %w", want, err)
			}
			return ev, nil
		case <-deadline:
			return load.Event{}, fmt.Errorf("no %s event within %v", want, timeout)
		}
	}
}
