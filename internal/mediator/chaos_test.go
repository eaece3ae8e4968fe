package mediator

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

// The chaos suite: the three standard sources are decorated with
// seeded, deterministic fault schedules and queried through the guarded
// fan-out. Two properties are pinned over a fixed seed matrix:
//
//  1. Equivalence — when every injected fault is recoverable (errors
//     bounded below the retry budget, hangs shorter than the attempt
//     budget), Materialize, PlannedQuery and the Section 5 plan return
//     results identical to the fault-free run; retries never duplicate
//     a fact (the store has set semantics, and the per-class live pull
//     emits each object exactly once).
//  2. Monotone degradation — when a source is permanently down, the
//     answer equals the fault-free answer of a mediator that only
//     knows the surviving sources, and the reports say exactly which
//     source was dropped and why.
//
// The suite runs under -race in the Makefile chaos target; schedules
// are pure functions of (seed, call site, ordinal), so a failure
// reproduces under any interleaving.

var chaosSeeds = []int64{1, 7, 42, 1001}

// chaosOptions is the guarded fan-out policy used across the suite:
// generous retry budget (schedules cap consecutive errors below it),
// fast backoff, no breaker — a breaker trip would legitimately drop a
// still-recovering source and is exercised separately.
func chaosOptions() Options {
	return Options{
		SourceTimeout: 2 * time.Second,
		MaxRetries:    4,
		RetryBase:     100 * time.Microsecond,
		RetryMax:      2 * time.Millisecond,
	}
}

// newChaosMediator builds the standard neuro scenario (data seed 11,
// like newNeuroMediator) with each wrapper decorated by the fault
// schedule cfg returns for it (nil = undecorated).
func newChaosMediator(t testing.TB, nSyn, nNcm, nSl int, opts Options,
	cfg func(name string, i int) *wrapper.FaultConfig) (*Mediator, map[string]*wrapper.Faulty) {
	t.Helper()
	m := New(sources.NeuroDM(), &opts)
	ws, err := sources.Wrappers(11, nSyn, nNcm, nSl)
	if err != nil {
		t.Fatal(err)
	}
	faulty := map[string]*wrapper.Faulty{}
	for i, w := range ws {
		var reg wrapper.Wrapper = w
		if c := cfg(w.Name(), i); c != nil {
			f := wrapper.NewFaulty(w, *c)
			faulty[w.Name()] = f
			reg = f
		}
		if err := m.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	return m, faulty
}

// newSurvivorsMediator is the fault-free reference for the degradation
// property: the same scenario with one source never registered.
func newSurvivorsMediator(t testing.TB, nSyn, nNcm, nSl int, exclude string) *Mediator {
	t.Helper()
	m := New(sources.NeuroDM(), nil)
	ws, err := sources.Wrappers(11, nSyn, nNcm, nSl)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		if w.Name() == exclude {
			continue
		}
		if err := m.Register(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.DefineStandardViews(); err != nil {
		t.Fatal(err)
	}
	return m
}

// flakySchedule returns recoverable schedules: transient errors with at
// most 2 in a row per call site, under the budget of chaosOptions.
func flakySchedule(seed int64) func(name string, i int) *wrapper.FaultConfig {
	return func(name string, i int) *wrapper.FaultConfig {
		return &wrapper.FaultConfig{
			Seed:           seed + int64(i)*7919,
			ErrorProb:      0.45,
			MaxConsecutive: 2,
			Latency:        50 * time.Microsecond,
		}
	}
}

// countFacts counts the facts of one predicate in a dumpResult dump.
func countFacts(dump, pred string) int {
	n := 0
	for _, line := range strings.Split(dump, "\n") {
		if strings.HasPrefix(line, pred) {
			n++
		}
	}
	return n
}

// chaosQ is the pushdown query shared with the fan-out suite.
const chaosQ = `src_obj('NCMIR', O, protein_amount),
	src_val('NCMIR', O, location, spine),
	src_val('NCMIR', O, amount, A)`

// TestChaosMaterializeEquivalence: for every seed of the matrix a fully
// flaky federation must materialize the exact fact set of the
// fault-free run — and, per predicate, the exact fact counts (a
// retried pull that double-contributed src_* facts would show here).
func TestChaosMaterializeEquivalence(t *testing.T) {
	baseline := newNeuroMediator(t, 15, 40, 12)
	rb, err := baseline.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	want := dumpResult(rb)
	totalRetries := 0
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(), flakySchedule(seed))
			res, err := m.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			got := dumpResult(res)
			if got != want {
				t.Fatalf("chaotic materialization diverged from the fault-free run (%d vs %d facts)",
					res.Store.Size(), rb.Store.Size())
			}
			for _, pred := range []string{"src_obj", "src_val", "src_sub", "src_tuple", "anchor"} {
				if g, w := countFacts(got, pred), countFacts(want, pred); g != w {
					t.Errorf("%s facts: %d, want %d (retries must not duplicate facts)", pred, g, w)
				}
			}
			reports := m.SourceReports()
			if len(reports) != 3 {
				t.Fatalf("got %d reports, want 3: %v", len(reports), reports)
			}
			for _, r := range reports {
				if r.Status == StatusFailed {
					t.Errorf("recoverable schedule still failed a source: %v", r)
				}
				totalRetries += r.Retries
			}
		})
	}
	if totalRetries == 0 {
		t.Error("no retries across the whole seed matrix; the schedules injected nothing")
	}
}

// TestChaosPlannedQueryEquivalence: the planned path (pushdown fan-out
// + residual evaluation) under flaky sources returns the fault-free
// rows and the fault-free plan decisions.
func TestChaosPlannedQueryEquivalence(t *testing.T) {
	baseline := newNeuroMediator(t, 15, 40, 12)
	ab, pb, err := baseline.PlannedQuery(chaosQ, "O", "A")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(), flakySchedule(seed))
			ac, pc, err := m.PlannedQuery(chaosQ, "O", "A")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(ac.Rows) != fmt.Sprint(ab.Rows) {
				t.Errorf("rows diverged:\nchaotic:    %v\nfault-free: %v", ac.Rows, ab.Rows)
			}
			if len(pc.Pushdowns) != len(pb.Pushdowns) {
				t.Fatalf("pushdown counts differ: %d vs %d", len(pc.Pushdowns), len(pb.Pushdowns))
			}
			for i := range pc.Pushdowns {
				c, b := pc.Pushdowns[i], pb.Pushdowns[i]
				if c.Source != b.Source || c.Pushed != b.Pushed || c.Returned != b.Returned {
					t.Errorf("pushdown %d differs: chaotic=%+v fault-free=%+v", i, c, b)
				}
			}
			for _, r := range pc.Reports {
				if r.Status == StatusFailed {
					t.Errorf("recoverable schedule still failed a source: %v", r)
				}
			}
		})
	}
}

// TestChaosSection5Equivalence: the paper's four-step plan — pushdowns,
// semantic-index source selection, distribution views — survives a
// flaky federation bit-for-bit.
func TestChaosSection5Equivalence(t *testing.T) {
	baseline := newNeuroMediator(t, 15, 40, 12)
	rb, err := baseline.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range chaosSeeds {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(), flakySchedule(seed))
			rc, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(rc.Pairs) != fmt.Sprint(rb.Pairs) {
				t.Errorf("pairs differ: %v vs %v", rc.Pairs, rb.Pairs)
			}
			if fmt.Sprint(rc.SelectedSources) != fmt.Sprint(rb.SelectedSources) {
				t.Errorf("selected sources differ: %v vs %v", rc.SelectedSources, rb.SelectedSources)
			}
			if fmt.Sprint(rc.Proteins) != fmt.Sprint(rb.Proteins) {
				t.Errorf("proteins differ: %v vs %v", rc.Proteins, rb.Proteins)
			}
			if rc.Root != rb.Root {
				t.Errorf("distribution root differs: %s vs %s", rc.Root, rb.Root)
			}
			for p, db := range rb.Distributions {
				dc := rc.Distributions[p]
				if dc == nil {
					t.Errorf("distribution for %s missing", p)
					continue
				}
				if dc.String() != db.String() {
					t.Errorf("distribution for %s diverged:\nchaotic:\n%s\nfault-free:\n%s", p, dc, db)
				}
			}
		})
	}
}

// TestChaosHangsWithDeadlineEquivalence: schedules that also hang
// (past the per-call deadline) still converge to the fault-free result
// — timed-out attempts are abandoned and retried.
func TestChaosHangsWithDeadlineEquivalence(t *testing.T) {
	baseline := newNeuroMediator(t, 10, 25, 8)
	rb, err := baseline.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	opts := chaosOptions()
	opts.SourceTimeout = 25 * time.Millisecond
	opts.MaxRetries = 6
	m, _ := newChaosMediator(t, 10, 25, 8, opts, func(name string, i int) *wrapper.FaultConfig {
		c := &wrapper.FaultConfig{
			Seed:           7 + int64(i)*7919,
			ErrorProb:      0.25,
			MaxConsecutive: 2,
			HangProb:       0.08,
			Hang:           150 * time.Millisecond,
		}
		if name == "SYNAPSE" {
			// Deterministic timeout coverage: the first call of every
			// SYNAPSE site hangs past the deadline.
			c.HangFirst = 1
		}
		return c
	})
	res, err := m.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := dumpResult(res), dumpResult(rb); got != want {
		t.Fatalf("hang-and-retry materialization diverged (%d vs %d facts)",
			res.Store.Size(), rb.Store.Size())
	}
	timeouts := 0
	for _, r := range m.SourceReports() {
		if r.Status == StatusFailed {
			t.Errorf("source failed under recoverable hangs: %v", r)
		}
		timeouts += r.Timeouts
	}
	if timeouts == 0 {
		t.Error("no timeouts observed although SYNAPSE hangs its first call per site")
	}
}

// TestChaosDegradationMonotone is the degradation property: for each
// source as the victim (permanently down, amidst otherwise flaky but
// recoverable peers), the degraded answer equals the fault-free answer
// of a mediator that only knows the survivors, and no victim fact
// leaks into the store.
func TestChaosDegradationMonotone(t *testing.T) {
	for vi, victim := range []string{"SYNAPSE", "NCMIR", "SENSELAB"} {
		t.Run(victim, func(t *testing.T) {
			survivors := newSurvivorsMediator(t, 15, 40, 12, victim)
			rs, err := survivors.Materialize()
			if err != nil {
				t.Fatal(err)
			}
			want := dumpResult(rs)

			seed := chaosSeeds[vi%len(chaosSeeds)]
			m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(),
				func(name string, i int) *wrapper.FaultConfig {
					if name == victim {
						return &wrapper.FaultConfig{Down: true}
					}
					return flakySchedule(seed)(name, i)
				})
			res, err := m.Materialize()
			if err != nil {
				t.Fatalf("degradation should absorb the down source, got %v", err)
			}
			got := dumpResult(res)
			if got != want {
				t.Fatalf("degraded answer != survivors-only answer (%d vs %d facts)",
					res.Store.Size(), rs.Store.Size())
			}
			if strings.Contains(got, victim) {
				t.Errorf("facts of the down source %s leaked into the degraded store", victim)
			}
			for _, r := range m.SourceReports() {
				if r.Source == victim {
					if r.Status != StatusFailed || r.Err == "" {
						t.Errorf("victim report = %+v, want failed with an error", r)
					}
				} else if r.Status == StatusFailed {
					t.Errorf("survivor %s reported failed: %+v", r.Source, r)
				}
			}
		})
	}
}

// TestChaosDegradedPlannedQuery: the planned path over a federation
// with NCMIR down. A query that constrains the source to NCMIR comes
// back empty (not an error); a source-variable query still returns
// everything the survivors hold.
func TestChaosDegradedPlannedQuery(t *testing.T) {
	baseline := newNeuroMediator(t, 15, 40, 12)
	down := func() *Mediator {
		m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(),
			func(name string, i int) *wrapper.FaultConfig {
				if name == "NCMIR" {
					return &wrapper.FaultConfig{Down: true}
				}
				return nil
			})
		return m
	}

	t.Run("victim-only query degrades to empty", func(t *testing.T) {
		m := down()
		ans, plan, err := m.PlannedQuery(chaosQ, "O", "A")
		if err != nil {
			t.Fatalf("query over a down source should degrade, got %v", err)
		}
		if len(ans.Rows) != 0 {
			t.Errorf("down source still produced %d rows", len(ans.Rows))
		}
		r := reportFor(t, plan.Reports, "NCMIR")
		if r.Status != StatusFailed {
			t.Errorf("NCMIR report = %+v, want failed", r)
		}
	})

	t.Run("survivor data is preserved", func(t *testing.T) {
		q := `src_obj(S, O, neurotransmission), src_val(S, O, neurotransmitter, "glutamate"),
			src_val(S, O, receiving_compartment, RC)`
		ab, _, err := baseline.PlannedQuery(q, "S", "O", "RC")
		if err != nil {
			t.Fatal(err)
		}
		m := down()
		ac, plan, err := m.PlannedQuery(q, "S", "O", "RC")
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ac.Rows) != fmt.Sprint(ab.Rows) {
			t.Errorf("survivor rows diverged:\ndegraded:   %v\nfault-free: %v", ac.Rows, ab.Rows)
		}
		r := reportFor(t, plan.Reports, "NCMIR")
		if r.Status != StatusFailed {
			t.Errorf("NCMIR report = %+v, want failed", r)
		}
	})
}

// TestChaosSection5Degraded: the Section 5 plan over a degraded
// federation. With the protein source down the query completes with no
// proteins (step 3 tolerates unavailable sources); with the driver
// down it fails with a SourceDownError naming the driver.
func TestChaosSection5Degraded(t *testing.T) {
	mk := func(victim string) *Mediator {
		m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(),
			func(name string, i int) *wrapper.FaultConfig {
				if name == victim {
					return &wrapper.FaultConfig{Down: true}
				}
				return nil
			})
		return m
	}

	t.Run("protein source down", func(t *testing.T) {
		m := mk("NCMIR")
		res, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
		if err != nil {
			t.Fatalf("plan should degrade around the protein source, got %v", err)
		}
		if len(res.Pairs) == 0 {
			t.Error("step 1 bindings lost although the driver is alive")
		}
		if len(res.Proteins) != 0 || len(res.Distributions) != 0 {
			t.Errorf("down source still contributed proteins %v", res.Proteins)
		}
	})

	t.Run("driver down", func(t *testing.T) {
		m := mk("SENSELAB")
		_, err := m.CalciumBindingProteinQuery("SENSELAB", "rat", "parallel_fiber", "calcium")
		var sde *SourceDownError
		if !errors.As(err, &sde) || sde.Source != "SENSELAB" {
			t.Fatalf("error = %v, want SourceDownError for the driver", err)
		}
	})
}

// TestChaosConcurrentQueriesSharedWrappers hammers one chaotic
// federation from concurrent queries — the guarded fan-outs of several
// PlannedQuery/Query calls hit the same Faulty/InMemory wrappers at
// once. Run under -race (Makefile chaos target); results must still
// all equal the fault-free answer.
func TestChaosConcurrentQueriesSharedWrappers(t *testing.T) {
	baseline := newNeuroMediator(t, 15, 40, 12)
	ab, _, err := baseline.PlannedQuery(chaosQ, "O", "A")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprint(ab.Rows)

	m, _ := newChaosMediator(t, 15, 40, 12, chaosOptions(), flakySchedule(42))
	const n = 6
	rows := make([]string, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := 0; k < n; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			var ans *Answer
			var err error
			if k%2 == 0 {
				ans, _, err = m.PlannedQuery(chaosQ, "O", "A")
			} else {
				ans, err = m.Query(chaosQ, "O", "A")
			}
			if err != nil {
				errs[k] = err
				return
			}
			rows[k] = fmt.Sprint(ans.Rows)
		}(k)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if errs[k] != nil {
			t.Fatalf("concurrent query %d failed: %v", k, errs[k])
		}
		if rows[k] != want {
			t.Errorf("concurrent query %d diverged from the fault-free rows", k)
		}
	}
}
