//go:build race

package core_test

// raceEnabled reports that this build runs under the race detector, where
// sync.Pool drops a share of what is put back and a pooled path's
// allocation count means nothing.
const raceEnabled = true
