package main

import (
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"modelmed/internal/mediator"
	"modelmed/internal/sources"
	"modelmed/internal/wrapper"
)

// TestMedOptionsFlagWiring checks the flag -> Options mapping,
// including the default (fault layer off).
func TestMedOptionsFlagWiring(t *testing.T) {
	defer func(d time.Duration, r int) {
		*srcTimeoutFlag, *retriesFlag = d, r
	}(*srcTimeoutFlag, *retriesFlag)

	*srcTimeoutFlag, *retriesFlag = 0, 0
	opts := medOptions()
	if opts.SourceTimeout != 0 || opts.MaxRetries != 0 {
		t.Errorf("default options = %+v", opts)
	}

	if err := flag.CommandLine.Parse([]string{
		"-source-timeout", "250ms", "-retries", "4"}); err != nil {
		t.Fatal(err)
	}
	opts = medOptions()
	if opts.SourceTimeout != 250*time.Millisecond || opts.MaxRetries != 4 {
		t.Errorf("parsed options = %+v", opts)
	}
}

// TestGuardedComparisonMatchesDirect pins the doc-comment claim: with
// live sources the guarded fan-out changes nothing in the comparison's
// model-based answer.
func TestGuardedComparisonMatchesDirect(t *testing.T) {
	build := func(opts *mediator.Options) *mediator.Mediator {
		t.Helper()
		med := mediator.New(sources.NeuroDM(), opts)
		ws, err := sources.Wrappers(42, 10, 40, 10)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range ws {
			if err := med.Register(w); err != nil {
				t.Fatal(err)
			}
		}
		return med
	}
	direct := build(&mediator.Options{})
	guarded := build(&mediator.Options{
		SourceTimeout: time.Second,
		MaxRetries:    2,
	})
	dd, err := direct.DistributionOf("calbindin", "rat", "purkinje_cell")
	if err != nil {
		t.Fatal(err)
	}
	dg, err := guarded.DistributionOf("calbindin", "rat", "purkinje_cell")
	if err != nil {
		t.Fatal(err)
	}
	if dg.String() != dd.String() {
		t.Errorf("guarded distribution diverged:\nguarded:\n%s\ndirect:\n%s", dg, dd)
	}
	if got := len(guarded.SourceReports()); got != 3 {
		t.Errorf("guarded run produced %d reports, want 3", got)
	}
}

// TestComparisonDegradesWithDeadSource: the comparison scenario with a
// dead protein source still computes, over the survivors.
func TestComparisonDegradesWithDeadSource(t *testing.T) {
	med := mediator.New(sources.NeuroDM(), &mediator.Options{MaxRetries: 1})
	ws, err := sources.Wrappers(42, 10, 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range ws {
		var reg wrapper.Wrapper = w
		if w.Name() == "NCMIR" {
			reg = wrapper.NewFaulty(w, wrapper.FaultConfig{Down: true})
		}
		if err := med.Register(reg); err != nil {
			t.Fatal(err)
		}
	}
	d, err := med.DistributionOf("calbindin", "rat", "purkinje_cell")
	if err != nil {
		t.Fatalf("degraded distribution failed: %v", err)
	}
	if total := d.Total(); total.Count != 0 {
		t.Errorf("dead protein source still contributed %d records", total.Count)
	}
	for _, r := range med.SourceReports() {
		if r.Source == "NCMIR" && r.Status != mediator.StatusFailed {
			t.Errorf("NCMIR report = %+v, want failed", r)
		}
	}
}

// TestMultipleWorldsStageTimings captures the example's output and
// asserts the traced stage-timing section is present: baseline
// end-to-end line, the mediator's query span tree and the per-source
// fan-out children.
func TestMultipleWorldsStageTimings(t *testing.T) {
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
	multipleWorlds()
	w.Close()
	os.Stdout = old
	out := <-done

	for _, want := range []string{
		"stage timings (structural baseline end to end:",
		"mediator.query",
		"materialize",
		"source NCMIR",
		"datalog.run",
		"evaluate",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
