//go:build race

package bmt

// raceEnabled reports a race-detector build. Under the race detector
// sync.Pool drops a random share of its Puts, so the engine's pooled
// hash scratch is reallocated now and then and allocation counts are
// not meaningful.
const raceEnabled = true
