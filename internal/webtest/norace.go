//go:build !race

package webtest

// RaceEnabled reports whether this build runs under the race detector.
const RaceEnabled = false
