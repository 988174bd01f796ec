//go:build !race

package mapper

// raceEnabled reports that the tests run under the race detector.
const raceEnabled = false
