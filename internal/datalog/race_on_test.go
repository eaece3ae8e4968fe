//go:build race

package datalog

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a share of what is put back, so allocation
// bounds over pooled buffers are looser.
const raceEnabled = true
