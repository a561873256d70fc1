//go:build !race

package bmt

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
