package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// a run re-executes itself (set-up boots, one process per workload).
func TestMain(m *testing.M) {
	for _, e := range os.Environ() {
		if e == childEnv {
			main()
			return
		}
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := percentile(sorted, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %v, want NaN", got)
	}
	unsorted := []float64{5, 1, 4}
	if got := median(unsorted); got != 4 {
		t.Errorf("median = %v, want 4", got)
	}
	if unsorted[0] != 5 {
		t.Error("median reordered its input")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles([]float64{1, 2, 3, 4, 5}); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
}

// TestWindowEstimators pins the window arithmetic: class floors and
// their two summaries, and the per-segment rates with the window's
// edges exclusive on the right, medians over segments, and a stalled
// segment spoiling only itself.
func TestWindowEstimators(t *testing.T) {
	t0 := time.Unix(1000, 0)
	w := window{start: t0.Add(2 * time.Second), end: t0.Add(8 * time.Second)}
	segs := w.segments(3)
	if len(segs) != 3 || !segs[0].start.Equal(w.start) || !segs[2].end.Equal(w.end) || segs[1].seconds() != 2 {
		t.Fatalf("segments = %v", segs)
	}
	at := func(s float64) time.Time { return t0.Add(time.Duration(s * float64(time.Second))) }
	var ops []time.Time
	var lats []sample
	op := func(end, latMs float64, class int) {
		ops = append(ops, at(end))
		lats = append(lats, sample{end: at(end), lat: time.Duration(latMs * float64(time.Millisecond)), class: class})
	}
	op(1.9, 1, 0) // warm-up: discarded
	// Segment 0, [2, 4): four operations, the first at its first instant.
	op(2.0, 4, 0)
	op(2.5, 2, 0)
	op(3.0, 6, 1)
	op(3.9, 8, 1)
	// Segment 1, [4, 6): a stall, one slow operation.
	op(5.0, 900, 0)
	// Segment 2, [6, 8): six operations; the window's end is exclusive.
	for i, l := range []float64{3, 5, 7, 9, 11, 13} {
		op(6.1+0.3*float64(i), l, i%2)
	}
	op(8.0, 1, 1)
	ops = append(ops, at(7.5)) // a successful operation that is not timed

	st := summarize(w, 3, ops, lats, 2)
	if want := []float64{2, 0.5, 3.5}; !equal(st.Throughput, want) {
		t.Errorf("segment throughput = %v, want %v", st.Throughput, want)
	}
	if want := []float64{5, 900, 8}; !equal(st.P50, want) {
		t.Errorf("segment p50 = %v, want %v", st.P50, want)
	}
	if want := []float64{7.4, 900, 12}; !equal(st.P90, want) {
		t.Errorf("segment p90 = %v, want %v", st.P90, want)
	}
	if st.Samples[0] != 4 || st.Samples[1] != 1 || st.Samples[2] != 6 {
		t.Errorf("segment samples = %v, want [4 1 6]", st.Samples)
	}
	// The stalled segment is the worst of each list, never its median.
	if median(st.Throughput) != 2 || median(st.P50) != 8 || median(st.P90) != 12 {
		t.Errorf("medians = %v, %v, %v, want 2, 8, 12", median(st.Throughput), median(st.P50), median(st.P90))
	}
	if len(st.Pooled) != 11 || st.ClassCount[0] != 6 || st.ClassCount[1] != 5 {
		t.Errorf("pooled %d, class counts %v, want 11, [6 5]", len(st.Pooled), st.ClassCount)
	}
	if st.ClassFloor[0] != 2 || st.ClassFloor[1] != 5 {
		t.Errorf("class floors = %v, want [2 5]", st.ClassFloor)
	}
	// Weighted by share: (2*6 + 5*5) / 11.
	if got, want := st.floorMean(), 37.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("floorMean = %v, want %v", got, want)
	}
	if got := st.floorMax(); got != 5 {
		t.Errorf("floorMax = %v, want 5", got)
	}
	if empty := summarize(w, 3, nil, nil, 2); !math.IsNaN(empty.floorMean()) || !math.IsNaN(empty.floorMax()) {
		t.Error("floors of no samples are not NaN")
	}
	// A segment nothing was timed in has a throughput and no quantiles.
	quiet := summarize(w, 3, ops, lats[:5], 2)
	if len(quiet.Throughput) != 3 || len(quiet.P50) != 1 {
		t.Errorf("quiet window: %d throughputs, %d p50s, want 3, 1", len(quiet.Throughput), len(quiet.P50))
	}
}

func equal(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			return false
		}
	}
	return true
}

// TestOpenLoopDueTime pins the open-loop rule: an operation's latency
// starts when it was due, however late the generator sent it.
func TestOpenLoopDueTime(t *testing.T) {
	start := time.Unix(1000, 0)
	if got := dueTime(start, 0, 50); !got.Equal(start) {
		t.Errorf("operation 0 is due at %v, want the start", got)
	}
	if got := dueTime(start, 125, 50).Sub(start); got != 2500*time.Millisecond {
		t.Errorf("operation 125 at 50/s is due after %v, want 2.5s", got)
	}
	// A generator that stalled 30 ms before sending delta 1: the
	// notification that arrives 5 ms after the send is 35 ms late
	// measured from the due time, and that is what is recorded.
	book := &notifyBook{pending: map[batchKey][]time.Time{}}
	due := dueTime(start, 1, 50)
	book.expect(batchKey{3, true}, due)
	sent := due.Add(30 * time.Millisecond)
	book.notified(batchKey{3, true}, sent.Add(5*time.Millisecond))
	if len(book.lats) != 1 || book.lats[0].lat != 35*time.Millisecond || book.lats[0].class != 1 {
		t.Errorf("recorded %+v, want one add-notification of 35ms", book.lats)
	}
	if book.outstanding() != 0 {
		t.Error("the notification did not resolve its delta")
	}
	// An event nobody is waiting for is ignored.
	book.notified(batchKey{4, false}, sent)
	if len(book.lats) != 1 {
		t.Error("an unexpected event was recorded")
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		gen := func(seed int64) []byte {
			ws, err := buildSources(seed, w.Scale)
			if err != nil {
				t.Fatal(err)
			}
			return makeInputs(w, seed, ws).bytes()
		}
		a, b, c := gen(7), gen(7), gen(8)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave different request or delta sequences", w.Name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: two seeds gave identical sequences", w.Name)
		}
	}
}

// TestSeedsKeepVolume pins the property the calibration rests on: the
// seed changes which object carries which record, never how many rows
// an answer has.
func TestSeedsKeepVolume(t *testing.T) {
	w := workloadByName("direct_sourceful")
	rows := func(seed int64) []int {
		ws, err := buildSources(seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		med, err := newMediator(ws, sourceNames)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		in := makeInputs(w, seed, ws)
		for i := range in.Requests {
			r, err := refRows(med, &in.Requests[i])
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, len(r))
		}
		return out
	}
	a, b := rows(1), rows(2)
	for i := range a {
		if a[i] != b[i] || a[i] == 0 {
			t.Errorf("request %d: %d rows under seed 1, %d under seed 2", i, a[i], b[i])
		}
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestBenchmarkJSONMatchesRunner: every workload and metric BENCHMARK.json
// names is one the runner emits, and the other way round.
func TestBenchmarkJSONMatchesRunner(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if spec.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, the runner's claim window is %d", spec.RunSeconds, runSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the runner", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the runner", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the runner", kind, len(got), len(want))
		}
		seen := map[string]bool{}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in the runner", kind, i, got[i], want[i])
			}
			if !nameRE.MatchString(got[i].Name) || seen[got[i].Name] {
				t.Errorf("%s metric name %q is malformed or repeated", kind, got[i].Name)
			}
			seen[got[i].Name] = true
		}
	}
	compare("end_to_end", spec.EndToEnd, endToEnd)
	compare("per_layer", spec.PerLayer, perLayer)
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
}

// smokeConfig is a run far too short to claim anything from (its
// report says so) with every correctness check on.
func smokeConfig(t *testing.T, window time.Duration) runConfig {
	return runConfig{seed: 5, window: window, warmup: 100 * time.Millisecond, segments: 2, boots: 1, reps: 2, cycles: 1,
		outDir: t.TempDir()}
}

func checkResult(t *testing.T, rep *report, metrics []metricDef) {
	t.Helper()
	r := rep.Result
	if !rep.Header.NotForClaims {
		t.Error("a smoke run is not stamped not-for-claims")
	}
	if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d (%s)", r.Correct, r.Attempted, r.Failed, rep.FirstError)
	}
	if len(r.Metrics) != len(metrics) {
		t.Errorf("%d metrics emitted, %d declared", len(r.Metrics), len(metrics))
	}
	for _, m := range metrics {
		v, ok := r.Metrics[m.Name]
		if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("metric %s: emitted %+v (present=%v)", m.Name, v, ok)
		}
	}
}

// TestSmoke runs every workload in both modes at the seed volume: what
// it checks is the harness, and a tenth of the facts keeps it inside
// the tier-1 budget. (The one set-up boot, a subprocess, is full size.)
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		w := *full
		w.Scale = 1
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			cfg := smokeConfig(t, 600*time.Millisecond)
			rep, err := runWorkload(&w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, endToEnd)
			for _, m := range endToEnd {
				if rep.Result.Metrics[m.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, rep.Result.Metrics[m.Name].Value)
				}
			}
		})
		t.Run(w.Name+"/traced", func(t *testing.T) {
			t.Parallel()
			// The traced run's concurrent window is a third of this.
			cfg := smokeConfig(t, 900*time.Millisecond)
			rep, err := runTraced(&w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, perLayer)
			if _, err := os.Stat(filepath.Join(cfg.outDir, "trace-"+w.Name+".json")); err != nil {
				t.Errorf("no span file: %v", err)
			}
		})
	}
}
