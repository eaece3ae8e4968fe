// Package leakcheck fails a test binary whose tests leave goroutines of
// this module running. Packages that start servers, feed loops or
// daemons wire it into TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// internal/datalog, internal/serve, internal/cluster, cmd/medd and
// cmd/medrouter do. internal/mediator does not: its timeout tests
// deliberately abandon wrapper.(*Faulty).apply hang sleeps, which are
// still running when the suite ends.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// settle is how long Main waits for goroutines to exit after the tests.
const settle = 5 * time.Second

// Main runs the tests, then polls for up to settle until no goroutine
// with a frame of this module remains. If any do, it prints their stacks
// and exits nonzero; otherwise it exits with the tests' status.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := wait(settle); stacks != "" {
			fmt.Fprintf(os.Stderr, "leakcheck: goroutines still running after the tests:\n\n%s\n", stacks)
			code = 1
		}
	}
	os.Exit(code)
}

// wait polls leaked until it reports nothing or d has passed, and
// returns its last report.
func wait(d time.Duration) string {
	deadline := time.Now().Add(d)
	for {
		stacks := leaked()
		if stacks == "" || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// leaked returns the stacks of every goroutine but the caller's that
// has a frame in this module, separated by blank lines.
func leaked() string {
	buf := make([]byte, 64<<10)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	// The caller's own goroutine comes first.
	gs := strings.Split(string(buf), "\n\n")[1:]
	var out []string
	for _, g := range gs {
		if strings.Contains(g, "modelmed/") {
			out = append(out, g)
		}
	}
	return strings.Join(out, "\n\n")
}
