package main

// The repeatability tool: two sets of full runs of the same code,
// alternating, the second set visiting the workloads in reverse order.
// The benchmark's bounds mean something only if these two sets agree
// within them.

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the acceptance check uses.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / median(vals)
}

// worsening is how much worse b is than a, as a share of a; negative
// when b is better.
func worsening(m metricDef, a, b float64) float64 {
	if m.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

func calibrateRuns(seed int64, seconds, runs int, outDir string) error {
	if runs < 2 {
		return errors.New("calibrate: need at least 2 runs per set")
	}
	names := workloadNames()
	reversed := append([]string(nil), names...)
	for i, j := 0, len(reversed)-1; i < j; i, j = i+1, j-1 {
		reversed[i], reversed[j] = reversed[j], reversed[i]
	}
	// values[set][workload][metric] holds one value per run.
	values := [2]map[string]map[string][]float64{{}, {}}
	for i := 0; i < runs; i++ {
		for set, order := range [][]string{names, reversed} {
			s := seed + int64(set*runs+i)
			results, err := runAll(order, s, seconds, 0, outDir)
			if err != nil {
				return err
			}
			for _, n := range order {
				r := results[n]
				if !r.Correct || r.Failed > 0 {
					return fmt.Errorf("calibrate: %s seed %d: correct=%v failed=%d", n, s, r.Correct, r.Failed)
				}
				if values[set][n] == nil {
					values[set][n] = map[string][]float64{}
				}
				for _, m := range endToEnd {
					values[set][n][m.Name] = append(values[set][n][m.Name], r.Metrics[m.Name].Value)
				}
			}
		}
	}

	fmt.Printf("# Calibration\n\n")
	fmt.Printf("`go run ./benchmark -calibrate -runs %d -seconds %d -seed %d` at commit `%s`, %s, NumCPU %d, GOMAXPROCS %d.\n\n",
		runs, seconds, seed, commit(), runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("Two sets of %d runs, alternating A, B, A, B, ...; every run is one process per workload. "+
		"Set A uses seeds %d..%d and the order %s; set B uses seeds %d..%d and the reverse order. "+
		"`B worse` is how much worse B's median is than A's; `spread` is (Q3 - Q1) / median over a set's runs, "+
		"quartiles as Python's `statistics.quantiles(n=4)` gives them. A row fails when |B worse| exceeds the bound; "+
		"it is marked `wide` when the spread of all the runs of both sets does (set-up time excepted: its spread is "+
		"reported, not judged).\n\n",
		runs, seed, seed+int64(runs)-1, strings.Join(names, ", "), seed+int64(runs), seed+int64(2*runs)-1)
	fmt.Println("| workload | metric | unit | median A | median B | B worse | bound | spread A | spread B | spread A+B | |")
	fmt.Println("|---|---|---|---:|---:|---:|---:|---:|---:|---:|---|")
	failures := 0
	for _, n := range names {
		for _, m := range endToEnd {
			a, b := values[0][n][m.Name], values[1][n][m.Name]
			worse := worsening(m, median(a), median(b))
			sa, sb, sab := spread(a), spread(b), spread(append(append([]float64(nil), a...), b...))
			verdict := "ok"
			if m.Name != "setup_s" && sab > m.Bound {
				verdict = "wide"
			}
			if worse > m.Bound || -worse > m.Bound {
				verdict = "FAIL"
				failures++
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.2f%% | %.0f%% | %.2f%% | %.2f%% | %.2f%% | %s |\n",
				n, m.Name, m.Unit, median(a), median(b), 100*worse, 100*m.Bound, 100*sa, 100*sb, 100*sab, verdict)
		}
	}
	if failures > 0 {
		return fmt.Errorf("calibrate: %d workload x metric pairs outside their bound", failures)
	}
	return nil
}
