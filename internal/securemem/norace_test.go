//go:build !race

package securemem

// raceEnabled reports a race-detector build; see race_test.go.
const raceEnabled = false
