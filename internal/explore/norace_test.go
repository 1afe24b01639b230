//go:build !race

package explore

// raceEnabled reports a build with the race detector.
const raceEnabled = false
