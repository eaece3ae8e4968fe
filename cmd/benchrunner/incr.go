package main

import (
	"fmt"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/gcm"
	"modelmed/internal/mediator"
	"modelmed/internal/sources"
	"modelmed/internal/term"
	"modelmed/internal/wrapper"
)

// incrReport is the JSON shape of BENCH_incr.json: incremental view
// maintenance (delta patch of the cached materialization) vs full
// re-materialization on small deltas over the Section 5 workload.
type incrReport struct {
	TotalFacts int
	Entries    []incrEntry
}

type incrEntry struct {
	Name string
	// DeltaFacts is the number of EDB fact changes per round and
	// DeltaPct its share of the materialized store.
	DeltaFacts int
	DeltaPct   float64
	FullNs     int64
	IncrNs     int64
	Speedup    float64
	// DRed work done by the incremental leg (last round).
	Overdeleted int
	Rederived   int
}

// incrExp measures incremental maintenance against full
// re-materialization over the Section 5 workload: mutate a handful of
// source records (<=1% of the store) and compare SyncSources /
// ApplySourceDelta against Invalidate+Materialize.
func incrExp() error {
	m := mediator.New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(2026, 60, 160, 40)
	if err != nil {
		return err
	}
	var syn *wrapper.InMemory
	for _, w := range ws {
		if err := m.Register(w); err != nil {
			return err
		}
		if w.Name() == "SYNAPSE" {
			syn = w
		}
	}
	if syn == nil {
		return fmt.Errorf("SYNAPSE wrapper missing from the Section 5 workload")
	}
	if err := m.DefineStandardViews(); err != nil {
		return err
	}
	res, err := m.Materialize()
	if err != nil {
		return err
	}
	rep := incrReport{TotalFacts: res.Store.Size()}
	fmt.Printf("materialized store holds %d facts\n", rep.TotalFacts)

	const reps = 3
	tick := 0

	// mutateSyn rewrites spine_density on k SYNAPSE records to fresh
	// values, so every round produces a real k-record delta.
	mutateSyn := func(k int) {
		tick++
		syn.Mutate(func(model *gcm.Model) {
			for i := 0; i < k && i < len(model.Objects); i++ {
				model.Objects[i].Values["spine_density"] =
					[]term.Term{term.Float(float64(tick*1000+i)/10 + 0.5)}
			}
		})
	}

	// fullAfterMutate times the from-scratch path: the same mutation,
	// then a full re-pull and re-materialization.
	fullAfterMutate := func(k int) (time.Duration, error) {
		var bestD time.Duration
		for i := 0; i < reps; i++ {
			mutateSyn(k)
			m.Invalidate()
			start := time.Now()
			if _, err := m.Materialize(); err != nil {
				return 0, err
			}
			if d := time.Since(start); bestD == 0 || d < bestD {
				bestD = d
			}
		}
		return bestD, nil
	}

	record := func(name string, k, deltaFacts int, full, incr time.Duration, st *datalog.DeltaStats) {
		e := incrEntry{
			Name:       name,
			DeltaFacts: deltaFacts,
			DeltaPct:   float64(deltaFacts) / float64(rep.TotalFacts) * 100,
			FullNs:     full.Nanoseconds(),
			IncrNs:     incr.Nanoseconds(),
			Speedup:    float64(full) / float64(incr),
		}
		if st != nil {
			e.Overdeleted = st.Overdeleted
			e.Rederived = st.Rederived
		}
		rep.Entries = append(rep.Entries, e)
		fmt.Printf("  %-28s delta=%-4d (%.2f%%) full=%-12v incr=%-12v speedup=%.1fx\n",
			name, deltaFacts, e.DeltaPct, full.Round(time.Microsecond),
			incr.Round(time.Microsecond), e.Speedup)
	}

	// Leg 1: wrapper mutation + SyncSources (change detection via
	// DataVersion, snapshot diff, delta patch) for k in {1, 2}: well
	// under 1% of the store.
	for _, k := range []int{1, 2} {
		full, err := fullAfterMutate(k)
		if err != nil {
			return err
		}
		var bestD time.Duration
		var deltaFacts int
		var stats *datalog.DeltaStats
		for i := 0; i < reps; i++ {
			mutateSyn(k)
			start := time.Now()
			reports, err := m.SyncSources()
			if err != nil {
				return err
			}
			d := time.Since(start)
			if len(reports) != 1 {
				return fmt.Errorf("SyncSources: %d reports, want 1", len(reports))
			}
			if reports[0].Full {
				return fmt.Errorf("SyncSources fell back to a full rebuild on a %d-record delta", k)
			}
			deltaFacts = reports[0].FactsAdded + reports[0].FactsRemoved
			stats = reports[0].Stats
			if bestD == 0 || d < bestD {
				bestD = d
			}
		}
		record(fmt.Sprintf("sync/mutate-%d-records", k), k, deltaFacts, full, bestD, stats)
	}

	// Leg 2: pushed deltas via ApplySourceDelta — no wrapper pull at
	// all; each round pushes k fresh records and then retracts them, so
	// the store returns to baseline.
	for _, k := range []int{1, 4} {
		full, err := fullAfterMutate(k)
		if err != nil {
			return err
		}
		var bestD time.Duration
		var deltaFacts int
		var stats *datalog.DeltaStats
		for i := 0; i < reps; i++ {
			tick++
			var facts []datalog.Rule
			for j := 0; j < k; j++ {
				obj := term.Atom(fmt.Sprintf("bench_push_%d_%d", tick, j))
				facts = append(facts,
					datalog.Fact(mediator.PredSrcObj, term.Atom("SYNAPSE"), obj, term.Atom("spine_measurement")),
					datalog.Fact(mediator.PredSrcVal, term.Atom("SYNAPSE"), obj, term.Atom("spine_density"), term.Float(3.1)),
				)
			}
			start := time.Now()
			added, err := m.ApplySourceDelta("SYNAPSE", facts, nil)
			if err != nil {
				return err
			}
			removed, err := m.ApplySourceDelta("SYNAPSE", nil, facts)
			if err != nil {
				return err
			}
			d := time.Since(start) / 2 // mean of the add and the retract
			if added.Full || removed.Full {
				return fmt.Errorf("ApplySourceDelta fell back to a full rebuild on a %d-fact delta", len(facts))
			}
			deltaFacts = added.FactsAdded
			stats = removed.Stats
			if bestD == 0 || d < bestD {
				bestD = d
			}
		}
		record(fmt.Sprintf("push/apply-delta-%d-facts", 2*k), k, deltaFacts, full, bestD, stats)
	}

	fmt.Println("incremental maintenance patches the cached materialization; full re-materialization re-pulls every source and re-runs the fixpoint")
	return writeJSON("BENCH_incr.json", rep)
}
