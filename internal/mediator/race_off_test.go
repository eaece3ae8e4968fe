//go:build !race

package mediator

// raceEnabled reports whether the race detector instruments this build;
// its shadow work is not the program's, so latency bounds skip under it.
const raceEnabled = false
