package main

// Golden-file tests pinning the paper's experiments: each experiment's
// section, exactly as `benchrunner -exp <id>` prints it, with Go
// durations masked. Regenerate with:
//
//	go test ./cmd/benchrunner -run TestPaperExperiments -update
//
// and review the testdata/*.golden diff like any other code change.

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden files")

// durations matches a printed time.Duration ("0s", "7.8µs", "3.252ms"):
// the only part of an experiment's output that varies between runs.
var durations = regexp.MustCompile(`[0-9]+(\.[0-9]+)?(ns|µs|ms|s|m)\b`)

func TestPaperExperiments(t *testing.T) {
	for _, e := range experiments {
		t.Run(e.id, func(t *testing.T) {
			var buf bytes.Buffer
			if err := run(&buf, e); err != nil {
				t.Fatal(err)
			}
			got := durations.ReplaceAll(buf.Bytes(), []byte("<d>"))
			path := filepath.Join("testdata", e.id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("read golden: %v (run with -update to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s mismatch (re-run with -update and review the diff)\n--- got ---\n%s\n--- want ---\n%s",
					path, got, want)
			}
		})
	}
}
