//go:build !race

package canon_test

// raceEnabled reports a build with the race detector.
const raceEnabled = false
