//go:build !race

package core_test

// raceEnabled reports whether this build runs under the race detector.
const raceEnabled = false
