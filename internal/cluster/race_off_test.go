//go:build !race

package cluster

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops a share of what is put back, so allocation
// bounds over pooled buffers skip.
const raceEnabled = false
