//go:build !race

package httpwire

// raceEnabled reports whether this build runs under the race detector.
const raceEnabled = false
