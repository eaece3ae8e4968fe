package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"modelmed/internal/mediator"
)

func TestBuildScenario(t *testing.T) {
	med, err := buildScenario(3, 10, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(med.Sources()); got != 3 {
		t.Errorf("sources = %d", got)
	}
	if got := len(med.Views()); got != 2 {
		t.Errorf("views = %d", got)
	}
}

func TestRunLineCommands(t *testing.T) {
	med, err := buildScenario(3, 10, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{".sources", ".views", ".concepts", ".fig3"} {
		if err := runLine(med, cmd); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
}

func TestRunLineQuery(t *testing.T) {
	med, err := buildScenario(3, 10, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLine(med, `anchor('NCMIR', O, C)`); err != nil {
		t.Errorf("query: %v", err)
	}
	if err := runLine(med, `broken(`); err == nil {
		t.Error("bad query should error")
	}
}

func TestRunLinePlan(t *testing.T) {
	med, err := buildScenario(3, 10, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLine(med, ".plan"); err != nil {
		t.Errorf(".plan: %v", err)
	}
}

func TestRunLineCheckAndDot(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{".check", ".dot"} {
		if err := runLine(med, cmd); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
}

func TestRunLinePlanq(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLine(med, `.planq anchor(S, O, purkinje_cell)`); err != nil {
		t.Errorf(".planq: %v", err)
	}
}

func TestLoadRuleFile(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := `
		spine_data(O) :- anchor(S, O, spine).
		?- spine_data(O).
	`
	if err := loadRuleFile(med, src); err != nil {
		t.Fatalf("loadRuleFile: %v", err)
	}
}

func TestRunLineWhy(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	// instance(sl_n0, neurotransmission) is derived via the bridge rule.
	if err := runLine(med, ".why instance(sl_n0, neurotransmission)"); err != nil {
		t.Errorf(".why: %v", err)
	}
	if err := runLine(med, ".why instance(ghost, nothing)"); err == nil {
		t.Error(".why on a false fact should error")
	}
}

func TestLoadShippedRuleFile(t *testing.T) {
	med, err := buildScenario(3, 10, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../examples/rules/spine_report.mbm")
	if err != nil {
		t.Fatal(err)
	}
	if err := loadRuleFile(med, string(data)); err != nil {
		t.Fatalf("shipped rule file: %v", err)
	}
}

func TestRunLineRegisterAndTaxonomy(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLine(med, ".register my_cell sub purkinje_cell and exists exp.dopamine_r."); err != nil {
		t.Fatalf(".register: %v", err)
	}
	if !med.DomainMap().HasConcept("my_cell") {
		t.Error("registered concept missing")
	}
	if err := runLine(med, ".taxonomy"); err != nil {
		t.Fatalf(".taxonomy: %v", err)
	}
}

func TestParseDown(t *testing.T) {
	got := parseDown(" NCMIR, SENSELAB ,")
	if len(got) != 2 || !got["NCMIR"] || !got["SENSELAB"] {
		t.Errorf("parseDown = %v", got)
	}
	if len(parseDown("")) != 0 {
		t.Error("empty -down list should parse to no sources")
	}
}

// TestFaultScenarioFlagWiring checks that the fault flags reach the
// mediator options and the wrapper decoration: injected faults without
// an explicit budget imply default retries, and explicit knobs pass
// through unchanged.
func TestFaultScenarioFlagWiring(t *testing.T) {
	// Chaos flags only: the retry budget defaults on, and the flaky
	// session still answers the fault-free result.
	med, err := buildFaultScenario(scenarioConfig{
		seed: 3, nSyn: 10, nNcm: 20, nSl: 10,
		faultRate: 0.4, faultSeed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := buildScenario(3, 10, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := `src_obj('NCMIR', O, protein_amount)`
	af, err := med.Query(q, "O")
	if err != nil {
		t.Fatalf("flaky session query: %v", err)
	}
	ap, err := plain.Query(q, "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(af.Rows) != len(ap.Rows) {
		t.Errorf("flaky session returned %d rows, fault-free %d", len(af.Rows), len(ap.Rows))
	}
	reps := med.SourceReports()
	if len(reps) != 3 {
		t.Fatalf("got %d reports, want 3 (fault layer should be on): %v", len(reps), reps)
	}
	for _, r := range reps {
		if r.Status == mediator.StatusFailed {
			t.Errorf("recoverable chaos failed a source: %v", r)
		}
	}

	// Explicit deadline/retry knobs, no injection: layer on, all OK.
	med2, err := buildFaultScenario(scenarioConfig{
		seed: 3, nSyn: 5, nNcm: 10, nSl: 5,
		sourceTimeout: 500 * time.Millisecond, retries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := med2.Materialize(); err != nil {
		t.Fatal(err)
	}
	for _, r := range med2.SourceReports() {
		if r.Status != mediator.StatusOK {
			t.Errorf("clean source not OK: %v", r)
		}
	}
}

// TestDegradedSessionTranscript drives a session with one source down:
// queries answer from the survivors, and .reports shows the failure.
func TestDegradedSessionTranscript(t *testing.T) {
	med, err := buildFaultScenario(scenarioConfig{
		seed: 3, nSyn: 10, nNcm: 20, nSl: 10,
		retries: 1, down: parseDown("NCMIR"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range []string{
		`anchor('SYNAPSE', O, C)`,
		`src_obj('NCMIR', O, protein_amount)`, // degrades to 0 rows, no error
		".reports",
		".sources",
	} {
		if err := runLine(med, cmd); err != nil {
			t.Errorf("%s: %v", cmd, err)
		}
	}
	ans, err := med.Query(`src_obj('NCMIR', O, protein_amount)`, "O")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 0 {
		t.Errorf("down source still answered %d rows", len(ans.Rows))
	}
	r := reportByName(t, med.SourceReports(), "NCMIR")
	if r.Status != mediator.StatusFailed {
		t.Errorf("NCMIR report = %+v, want failed", r)
	}
	for _, name := range []string{"SYNAPSE", "SENSELAB"} {
		if r := reportByName(t, med.SourceReports(), name); r.Status == mediator.StatusFailed {
			t.Errorf("survivor %s reported failed: %+v", name, r)
		}
	}
}

func reportByName(t *testing.T, reps []mediator.SourceReport, name string) mediator.SourceReport {
	t.Helper()
	for _, r := range reps {
		if r.Source == name {
			return r
		}
	}
	t.Fatalf("no report for %s in %v", name, reps)
	return mediator.SourceReport{}
}

func TestRunLineReportsWithoutFaultLayer(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLine(med, ".reports"); err != nil {
		t.Errorf(".reports: %v", err)
	}
}

func TestRunLineDist(t *testing.T) {
	med, err := buildScenario(3, 5, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := runLine(med, ".dist calbindin rat cerebellum"); err != nil {
		t.Errorf(".dist: %v", err)
	}
	if err := runLine(med, ".dist calbindin rat cerebellum dot"); err != nil {
		t.Errorf(".dist dot: %v", err)
	}
	if err := runLine(med, ".dist onlyone"); err == nil {
		t.Error("usage error expected")
	}
}

// captureOutput runs fn with os.Stdout redirected to a pipe and
// returns everything it printed.
func captureOutput(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		done <- b.String()
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

// TestRunLineTraceAndStats drives the observability commands through a
// session: .stats without a trace explains itself, .trace on records
// the next query's span tree, .stats renders spans plus counters, and
// .trace off clears the captured state.
func TestRunLineTraceAndStats(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	mustContain := func(cmd, out string, wants ...string) {
		t.Helper()
		for _, w := range wants {
			if !strings.Contains(out, w) {
				t.Errorf("%s output missing %q:\n%s", cmd, w, out)
			}
		}
	}
	out, err := captureOutput(t, func() error { return runLine(med, ".stats") })
	if err != nil {
		t.Fatal(err)
	}
	mustContain(".stats", out, "no trace recorded")

	out, err = captureOutput(t, func() error { return runLine(med, ".trace on") })
	if err != nil {
		t.Fatal(err)
	}
	mustContain(".trace on", out, "tracing on")

	if _, err := captureOutput(t, func() error { return runLine(med, `anchor('NCMIR', O, C)`) }); err != nil {
		t.Fatal(err)
	}
	out, err = captureOutput(t, func() error { return runLine(med, ".stats") })
	if err != nil {
		t.Fatal(err)
	}
	mustContain(".stats", out,
		"mediator.query", "materialize", "source NCMIR", "datalog.run",
		"counters:", "datalog.rounds", "datalog.firings")

	out, err = captureOutput(t, func() error { return runLine(med, ".trace") })
	if err != nil {
		t.Fatal(err)
	}
	mustContain(".trace", out, "tracing is on")

	out, err = captureOutput(t, func() error { return runLine(med, ".trace off") })
	if err != nil {
		t.Fatal(err)
	}
	mustContain(".trace off", out, "tracing off")

	out, err = captureOutput(t, func() error { return runLine(med, ".stats") })
	if err != nil {
		t.Fatal(err)
	}
	mustContain(".stats after off", out, "no trace recorded")
}

// TestRunLineReportsOutput pins the .reports rendering for a degraded
// session: the dead source and its failure must be visible.
func TestRunLineReportsOutput(t *testing.T) {
	med, err := buildFaultScenario(scenarioConfig{
		seed: 3, nSyn: 5, nNcm: 10, nSl: 5,
		retries: 1, down: parseDown("NCMIR"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := captureOutput(t, func() error { return runLine(med, `anchor('SYNAPSE', O, C)`) }); err != nil {
		t.Fatal(err)
	}
	out, err := captureOutput(t, func() error { return runLine(med, ".reports") })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"NCMIR", "failed", "SYNAPSE"} {
		if !strings.Contains(out, want) {
			t.Errorf(".reports output missing %q:\n%s", want, out)
		}
	}
}

// TestRunLineSurvivesGarbage: malformed queries, axioms and commands
// come back as errors (the shell prints them and keeps the session) —
// never as panics.
func TestRunLineSurvivesGarbage(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"broken(", "p(X :- q", "a[m->", "?- ?-", "not (",
		".register my sub", ".register sub sub sub", ".why p(",
		".planq broken(", ".dist", ".load /no/such/file",
	} {
		line := line
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("runLine(%q) panicked: %v", line, r)
				}
			}()
			if _, err := captureOutput(t, func() error { return runLine(med, line) }); err == nil {
				t.Errorf("runLine(%q) accepted malformed input", line)
			}
		}()
	}
	// The session still answers after the garbage.
	if _, err := captureOutput(t, func() error { return runLine(med, `anchor('NCMIR', O, C)`) }); err != nil {
		t.Errorf("session did not survive garbage input: %v", err)
	}
}

func TestSplitSigned(t *testing.T) {
	got := splitSigned(` +src_val('SYNAPSE', o1, spine_density, 2.5) -src_obj('SYNAPSE', o2, spine_measurement)`)
	if len(got) != 2 {
		t.Fatalf("splitSigned = %v", got)
	}
	if got[0] != "+src_val('SYNAPSE', o1, spine_density, 2.5)" {
		t.Errorf("chunk 0 = %q", got[0])
	}
	if got[1] != "-src_obj('SYNAPSE', o2, spine_measurement)" {
		t.Errorf("chunk 1 = %q", got[1])
	}
	// Signs inside argument lists don't split a chunk.
	got = splitSigned("+f(a, -1, g(+2))")
	if len(got) != 1 || got[0] != "+f(a, -1, g(+2))" {
		t.Errorf("nested signs = %v", got)
	}
	if got := splitSigned("   "); len(got) != 0 {
		t.Errorf("blank input = %v", got)
	}
}

func TestRunLineDeltaSyncInvalidate(t *testing.T) {
	med, err := buildScenario(3, 10, 20, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Push a new SYNAPSE record and see it through a query.
	cmd := `.delta SYNAPSE +src_obj('SYNAPSE', pushed_m, spine_measurement) +src_val('SYNAPSE', pushed_m, spine_density, 9.5)`
	if err := runLine(med, cmd); err != nil {
		t.Fatalf(".delta: %v", err)
	}
	ans, err := med.Query(`src_val('SYNAPSE', pushed_m, spine_density, V)`, "V")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 1 {
		t.Errorf("pushed fact not visible: %d rows", len(ans.Rows))
	}
	// Retract it again.
	if err := runLine(med, `.delta SYNAPSE -src_obj('SYNAPSE', pushed_m, spine_measurement) -src_val('SYNAPSE', pushed_m, spine_density, 9.5)`); err != nil {
		t.Fatalf(".delta retract: %v", err)
	}
	ans, err = med.Query(`src_val('SYNAPSE', pushed_m, spine_density, V)`, "V")
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Rows) != 0 {
		t.Errorf("retracted fact still visible: %d rows", len(ans.Rows))
	}
	// .sync with untouched wrappers reports nothing to do.
	if err := runLine(med, ".sync"); err != nil {
		t.Fatalf(".sync: %v", err)
	}
	if err := runLine(med, ".invalidate"); err != nil {
		t.Fatalf(".invalidate: %v", err)
	}
	// Malformed deltas error instead of panicking.
	for _, bad := range []string{".delta SYNAPSE", ".delta SYNAPSE +broken(", ".delta NOWHERE +f(a)", ".delta SYNAPSE +justatom"} {
		if err := runLine(med, bad); err == nil {
			t.Errorf("%q should error", bad)
		}
	}
}

// captureStdout runs f with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, f func()) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	f()
	w.Close()
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestHelpAndUnknownCommand pins the dot-command contract: .help lists
// every command including the incremental and serving ones, and an
// unknown dot-command errors with the help text instead of evaluating
// as query text.
func TestHelpAndUnknownCommand(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := runLine(med, ".help"); err != nil {
			t.Errorf(".help: %v", err)
		}
	})
	for _, want := range []string{".delta", ".sync", ".invalidate", ".serve ADDR", ".planq", ".trace"} {
		if !strings.Contains(out, want) {
			t.Errorf(".help output missing %q", want)
		}
	}

	var cmdErr error
	out = captureStdout(t, func() { cmdErr = runLine(med, ".definitely_not_a_command foo") })
	if cmdErr == nil {
		t.Fatal("unknown dot-command accepted")
	}
	if !strings.Contains(cmdErr.Error(), "unknown command .definitely_not_a_command") {
		t.Errorf("error = %v", cmdErr)
	}
	if !strings.Contains(out, ".help") || !strings.Contains(out, ".serve ADDR") {
		t.Errorf("unknown command did not print the help text: %q", out)
	}
}

// TestServeCommand mounts the HTTP API from the shell and queries the
// same mediator over the wire.
func TestServeCommand(t *testing.T) {
	med, err := buildScenario(3, 5, 10, 5)
	if err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() {
		if err := runLine(med, ".serve 127.0.0.1:0"); err != nil {
			t.Fatalf(".serve: %v", err)
		}
	})
	m := regexp.MustCompile(`http://[\d.]+:\d+`).FindString(out)
	if m == "" {
		t.Fatalf("no bound address in output: %q", out)
	}
	resp, err := http.Post(m+"/v1/query", "application/json",
		strings.NewReader(`{"query": "src_obj('SYNAPSE', O, C)", "vars": ["O", "C"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var qr struct {
		Count int `json:"count"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || qr.Count == 0 {
		t.Errorf("served query: status %d, count %d", resp.StatusCode, qr.Count)
	}

	if err := runLine(med, ".serve"); err == nil {
		t.Error(".serve without ADDR should error")
	}
	if err := runLine(med, ".serve not-an-address:xx:yy"); err == nil {
		t.Error(".serve with a bad address should error")
	}
}
