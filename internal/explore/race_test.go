//go:build race

package explore

// raceEnabled reports that the race detector instruments this test binary;
// its instrumentation adds allocations, so allocation bounds do not apply.
const raceEnabled = true
