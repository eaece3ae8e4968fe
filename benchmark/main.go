// Command benchmark is the repo's one benchmark: four workloads over
// the mediator service composed in-process as cmd/medd and
// cmd/medrouter compose it, five end-to-end metrics per workload, and a
// traced pass that budgets each layer from outside. See README.md.
//
// Usage (from the repo root):
//
//	go run ./benchmark                          every workload, one process each
//	go run ./benchmark -workload live_update    one workload
//	go run ./benchmark -workload W -trace 1     the per-layer pass
//	go run ./benchmark -calibrate               repeatability check
//
// The last line of standard output of a one-workload run is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"modelmed/internal/datalog"
	"modelmed/internal/wrapper"
)

const (
	// runSeconds is the measured window a claim may rest on (the
	// run_seconds of BENCHMARK.json); shorter runs are stamped
	// not-for-claims.
	runSeconds = 25
	// windowSegments is how many equal segments the window is cut into;
	// the reported throughput, p50 and p90 are medians over them.
	windowSegments = 7
	// setupBoots cold boots, each in a fresh subprocess, give setup_s.
	setupBoots = 5
)

// runConfig is what one run is told; everything but the seed and the
// output directory has one value outside the tests' smoke runs.
type runConfig struct {
	seed int64
	// window is the measured window; warmup precedes it and is
	// discarded.
	window, warmup time.Duration
	segments       int
	boots          int
	// reps and cycles size the traced pass: repetitions of each request
	// class, and replays of router_gather's cycle. They are counts, not
	// durations, so that the exact-count metrics repeat exactly.
	reps, cycles int
	outDir       string
}

func defaultConfig(seed int64, seconds int, outDir string) runConfig {
	return runConfig{seed: seed, window: time.Duration(seconds) * time.Second, warmup: 2 * time.Second,
		segments: windowSegments, boots: setupBoots, reps: 60, cycles: 6, outDir: outDir}
}

// metricDef names one metric; Bound is the relative worsening that
// counts as a regression (end-to-end metrics only).
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"latency_floor_ms", "ms", "lower", 0.25},
	{"latency_floor_slow_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"alloc_kb_op", "KiB", "lower", 0.05},
	{"allocs_op", "count", "lower", 0.05},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// header stamps a report with what produced it.
type header struct {
	Workload      string   `json:"workload"`
	Commit        string   `json:"commit"`
	GoVersion     string   `json:"go_version"`
	NumCPU        int      `json:"num_cpu"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	EngineWorkers int      `json:"engine_workers"`
	Seed          int64    `json:"seed"`
	Scale         int      `json:"scale"`
	Clients       int      `json:"clients"`
	Classes       []string `json:"latency_classes"`
	Flush         string   `json:"flush_policy"`
	Trace         bool     `json:"trace"`
	WindowSeconds float64  `json:"window_seconds"`
	Segments      int      `json:"window_segments"`
	WarmupSeconds float64  `json:"warmup_seconds"`
	SetupBoots    int      `json:"setup_boots"`
	NotForClaims  bool     `json:"not_for_claims"`
}

// report is what a run writes under benchmark/out/.
type report struct {
	Header header `json:"header"`
	Result result `json:"result"`
	// Samples holds the sample counts and per-class values behind the
	// estimators, and the run's ungated diagnostics.
	Samples    map[string]any `json:"samples,omitempty"`
	FirstError string         `json:"first_error,omitempty"`
}

func newHeader(w *workload, cfg runConfig, trace bool) header {
	return header{
		Workload: w.Name, Commit: commit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		EngineWorkers: (&datalog.Options{}).ResolvedWorkers(),
		Seed:          cfg.seed, Scale: w.Scale, Clients: w.Clients, Classes: w.Classes, Flush: w.Flush, Trace: trace,
		WindowSeconds: cfg.window.Seconds(), Segments: cfg.segments, WarmupSeconds: cfg.warmup.Seconds(),
		SetupBoots: cfg.boots, NotForClaims: cfg != defaultConfig(cfg.seed, runSeconds, cfg.outDir),
	}
}

// commit is the checkout's HEAD, when the checkout is a git repository
// (run.sh builds without VCS stamping, so the binary does not know).
func commit() string {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

// writeAtomic writes v as indented JSON to dir/name via a temporary
// file and a rename, so a reader never sees half a report.
func writeAtomic(dir, name string, v any) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, name+".tmp-")
	if err != nil {
		return err
	}
	_, err = tmp.Write(append(b, '\n'))
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
	}
	return err
}

// childEnv marks a process as a re-execution of this binary; the
// package's TestMain hands such a process straight to main, so the
// tests exercise the same subprocess path as a real run.
const childEnv = "MODELMED_BENCHMARK_CHILD=1"

// self runs this binary again with the given arguments and returns its
// standard output.
func self(timeout time.Duration, args ...string) ([]byte, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Env = append(os.Environ(), childEnv)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// measureSetup boots the workload's system cfg.boots times, each in a
// fresh subprocess (a second boot in one process sees a warm intern
// table and a grown heap), and returns the boot times in seconds.
func measureSetup(w *workload, cfg runConfig) ([]float64, error) {
	var boots []float64
	for i := 0; i < cfg.boots; i++ {
		b, err := self(time.Minute, "-workload", w.Name, "-seed", fmt.Sprint(cfg.seed), "-out", cfg.outDir, "-setup-only")
		if err != nil {
			return nil, fmt.Errorf("setup boot %d: %w", i, err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("setup boot %d: bad output %q", i, b)
		}
		boots = append(boots, v)
	}
	return boots, nil
}

// setupOnly is the subprocess side of measureSetup: it prints the
// seconds from cold boot to the first served request. Generating the
// synthetic sources is excluded.
func setupOnly(w *workload, seed int64, outDir string) error {
	ws, err := buildSources(seed, w.Scale)
	if err != nil {
		return err
	}
	in := makeInputs(w, seed, ws)
	dir, err := dataDir(outDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	c := newClient()
	defer c.CloseIdleConnections()
	t0 := time.Now()
	sys, err := w.boot(ws, dir)
	if err != nil {
		return err
	}
	defer sys.stop()
	rows, err := query(c, sys.base, in.Requests[0].body)
	setup := time.Since(t0)
	if err != nil {
		return err
	}
	if len(rows) == 0 {
		return errors.New("first request came back empty")
	}
	fmt.Println(setup.Seconds())
	return nil
}

// session is one booted system under test with its inputs and oracle.
type session struct {
	w   *workload
	cfg runConfig
	ws  map[string]*wrapper.InMemory
	in  *inputs
	o   *oracle
	sys *system
	c   *http.Client
	dir string
	// readRate paces live_update's reader (0: closed loop).
	readRate float64

	attempted, failed int
	correct           bool
	firstErr          error
}

// openSession generates the inputs, builds the oracle, boots the
// system and checks every distinct request's answer against the
// from-scratch monolith. boot overrides the workload's own boot (the
// traced run instruments one).
func openSession(w *workload, cfg runConfig, boot func(map[string]*wrapper.InMemory, string) (*system, error)) (*session, error) {
	s := &session{w: w, cfg: cfg, correct: true, readRate: liveReadRate}
	var err error
	if s.ws, err = buildSources(cfg.seed, w.Scale); err != nil {
		return nil, err
	}
	s.in = makeInputs(w, cfg.seed, s.ws)
	if s.o, err = newOracle(w, cfg.seed, s.in); err != nil {
		return nil, err
	}
	if s.dir, err = dataDir(cfg.outDir); err != nil {
		return nil, err
	}
	if boot == nil {
		boot = w.boot
	}
	if s.sys, err = boot(s.ws, s.dir); err != nil {
		_ = os.RemoveAll(s.dir)
		return nil, err
	}
	s.c = newClient()
	if err := s.o.verifyAnswers(s.c, s.sys.base, s.in); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *session) close() {
	s.c.CloseIdleConnections()
	s.sys.stop()
	_ = os.RemoveAll(s.dir)
}

// note folds a failed check into the session's verdict.
func (s *session) note(err error) {
	if err != nil {
		s.correct = false
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
}

// tally folds one load phase's counts into the session's.
func (s *session) tally(ph *loadPhase) {
	s.attempted += ph.rec.attempted
	s.failed += ph.rec.failed
	if ph.rec.wrong > 0 {
		s.correct = false
	}
	if s.firstErr == nil {
		s.firstErr = ph.rec.firstErr
	}
}

// verifyFinal checks the state the traffic left behind: the answers
// once more, every mediator's store against a from-scratch rebuild when
// the workload wrote, and that no delta missed the WAL.
func (s *session) verifyFinal() {
	s.note(s.o.verifyAnswers(s.c, s.sys.base, s.in))
	if len(s.in.Deltas) > 0 {
		s.note(s.o.verifyStores(s.w, s.cfg.seed, s.sys))
	}
	s.note(s.sys.err())
}

func (s *session) result(metrics []metricDef, values map[string]float64) result {
	r := result{Correct: s.correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metricValue{}}
	for _, m := range metrics {
		r.Metrics[m.Name] = metricValue{Value: values[m.Name], Unit: m.Unit}
	}
	return r
}

// loadPhase is the outcome of one warm-up plus measured window.
type loadPhase struct {
	win        window
	rec        recorder
	live       *liveResult
	mem0, mem1 runtime.MemStats
	// st summarises the operations that completed inside the window;
	// timed is how many of them were timed, the "op" of alloc_kb_op and
	// allocs_op.
	st    segmentStats
	timed int
}

// runLoad drives the workload's traffic for a warm-up plus a window of
// the given length cut into nseg segments, reading the allocation
// counters at the window's edges. onSegment, when not nil, is called at
// the start of each segment.
func (s *session) runLoad(length time.Duration, nseg int, onSegment func(seg int)) (*loadPhase, error) {
	start := time.Now().Add(s.cfg.warmup)
	ph := &loadPhase{win: window{start: start, end: start.Add(length)}}
	w, base, in, o, deadline, readRate := s.w, s.sys.base, s.in, s.o, ph.win.end, s.readRate
	var wg sync.WaitGroup
	var mu sync.Mutex
	var loadErr error
	switch w.Name {
	case "router_gather":
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.rec.merge(gatherLoop(base, in, o, deadline))
		}()
	case "live_update":
		wg.Add(1)
		go func() {
			defer wg.Done()
			ph.live, loadErr = liveLoad(base, in, o, readRate, deadline)
		}()
	default:
		for c := 0; c < w.Clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				rec := closedLoop(base, in, o, c, deadline, true)
				mu.Lock()
				ph.rec.merge(rec)
				mu.Unlock()
			}(c)
		}
	}
	time.Sleep(time.Until(ph.win.start))
	runtime.ReadMemStats(&ph.mem0)
	for i, seg := range ph.win.segments(nseg) {
		if onSegment != nil {
			onSegment(i)
		}
		time.Sleep(time.Until(seg.end))
	}
	runtime.ReadMemStats(&ph.mem1)
	wg.Wait()
	if loadErr != nil {
		return nil, loadErr
	}
	if ph.live != nil {
		ph.rec = ph.live.rec
	}
	ph.st = summarize(ph.win, nseg, ph.rec.ops, ph.rec.lats, len(w.Classes))
	ph.timed = len(ph.st.Pooled)
	if ph.timed == 0 || median(ph.st.Throughput) == 0 {
		return nil, fmt.Errorf("no operation completed in the measured window (%v)", ph.rec.firstErr)
	}
	s.tally(ph)
	return ph, nil
}

// wallclock are the window's wall-clock rates, each the median of the
// per-segment values.
func (ph *loadPhase) wallclock() map[string]float64 {
	return map[string]float64{
		"loadgen.throughput_ops_s": median(ph.st.Throughput),
		"tail.latency_p50_ms":      median(ph.st.P50),
		"tail.latency_p90_ms":      median(ph.st.P90),
		"tail.latency_p99_ms":      percentile(ph.st.Pooled, 0.99),
	}
}

// runWorkload is one untraced run: boot, correctness check, warm-up,
// measured window, final-state check, set-up timing.
func runWorkload(w *workload, cfg runConfig) (*report, error) {
	rep := &report{Header: newHeader(w, cfg, false), Samples: map[string]any{}}
	s, err := openSession(w, cfg, nil)
	if err != nil {
		return nil, err
	}
	defer s.close()
	ph, err := s.runLoad(cfg.window, cfg.segments, nil)
	if err != nil {
		return nil, err
	}
	s.verifyFinal()
	// Set-up is timed after the window, with the system stopped, on a
	// machine the window has kept busy: timed first, the boots of a run
	// that follows an idle spell read up to a fifth slower.
	s.sys.stop()
	boots, err := measureSetup(w, cfg)
	if err != nil {
		return nil, err
	}

	rep.Result = s.result(endToEnd, map[string]float64{
		"latency_floor_ms":      ph.st.floorMean(),
		"latency_floor_slow_ms": ph.st.floorMax(),
		"setup_s":               median(boots),
		"alloc_kb_op":           float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / 1024 / float64(ph.timed),
		"allocs_op":             float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / float64(ph.timed),
	})
	// The wall-clock rates the issue asked to gate on, by its estimator:
	// reported on every run, gated on none (see stats.go).
	rep.Samples["wallclock"] = ph.wallclock()
	rep.Samples["segment.throughput_ops_s"] = ph.st.Throughput
	rep.Samples["segment.latency_p50_ms"] = ph.st.P50
	rep.Samples["segment.latency_p90_ms"] = ph.st.P90
	rep.Samples["segment.timed_ops"] = ph.st.Samples
	rep.Samples["latency.class_floor_ms"] = ph.st.ClassFloor
	rep.Samples["latency.class_samples"] = ph.st.ClassCount
	rep.Samples["setup_s.boots"] = boots
	rep.Samples["alloc_kb_op.timed_ops"] = ph.timed
	if ph.live != nil {
		rep.Samples["loadgen.late_p90_ms"] = percentileOf(ph.live.lateMs, 0.90)
		rep.Samples["loadgen.deltas_posted"] = len(ph.live.lateMs)
	}
	if s.firstErr != nil {
		rep.FirstError = s.firstErr.Error()
	}
	return rep, nil
}

// runAll re-executes this binary once per workload, so each builds and
// tears down its own system in its own process and order cannot
// matter. It returns each workload's result line.
func runAll(names []string, seed int64, seconds, trace int, outDir string) (map[string]*result, error) {
	out := map[string]*result{}
	for _, name := range names {
		b, err := self(5*time.Minute, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		var r result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
			return nil, fmt.Errorf("%s: bad result line: %w", name, err)
		}
		out[name] = &r
	}
	return out, nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

func run() error {
	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 2026, "input seed: the same seed gives the same requests and deltas")
	seconds := flag.Int("seconds", runSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = the traced per-layer pass instead of the end-to-end run")
	outDir := flag.String("out", filepath.Join("benchmark", "out"), "directory for reports, traces and scratch data")
	setup := flag.Bool("setup-only", false, "boot the workload's system once, print the boot time, exit")
	calibrate := flag.Bool("calibrate", false, "run two alternating sets of full runs and compare them against the bounds")
	runs := flag.Int("runs", 5, "with -calibrate: runs per set")
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		return errors.New("usage: benchmark [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-calibrate [-runs N]]")
	}
	if *calibrate {
		return calibrateRuns(*seed, *seconds, *runs, *outDir)
	}
	if *name == "all" {
		results, err := runAll(workloadNames(), *seed, *seconds, *trace, *outDir)
		if err != nil {
			return err
		}
		for _, n := range workloadNames() {
			line, err := json.Marshal(struct {
				Workload string `json:"workload"`
				*result
			}{n, results[n]})
			if err != nil {
				return err
			}
			fmt.Println(string(line))
		}
		return nil
	}
	w := workloadByName(*name)
	if w == nil {
		return fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *setup {
		return setupOnly(w, *seed, *outDir)
	}
	var rep *report
	var err error
	cfg := defaultConfig(*seed, *seconds, *outDir)
	file := fmt.Sprintf("%s-seed%d.json", w.Name, *seed)
	if *trace == 1 {
		rep, err = runTraced(w, cfg)
		file = fmt.Sprintf("%s-seed%d-layers.json", w.Name, *seed)
	} else {
		rep, err = runWorkload(w, cfg)
	}
	if err != nil {
		return err
	}
	if err := writeAtomic(*outDir, file, rep); err != nil {
		return err
	}
	if rep.FirstError != "" {
		fmt.Fprintln(os.Stderr, "benchmark: first failure:", rep.FirstError)
	}
	line, err := json.Marshal(&rep.Result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}
