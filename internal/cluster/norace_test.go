//go:build !race

package cluster_test

// raceEnabled reports whether this build runs under the race detector.
const raceEnabled = false
