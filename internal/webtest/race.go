//go:build race

package webtest

// RaceEnabled reports that this build runs under the race detector.
// sync.Pool then drops a quarter of what it is given, so a test that
// counts the allocations of code with pooled state cannot hold a ceiling.
const RaceEnabled = true
