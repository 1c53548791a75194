//go:build !race

package explore

// raceEnabled reports that the race detector instruments this test binary.
const raceEnabled = false
