package scenarios

import (
	"weakestfd/internal/lab"
)

// PatternSpec names a crash-pattern generator for a system of n processes —
// the "crash pattern" axis of every matrix is a list of these, so new
// failure shapes are added as data, not as new sweep loops.
type PatternSpec struct {
	Name string
	// Build returns crash times by 0-based process index (nil = failure
	// free). Process 0 is always kept correct.
	Build func(n int) map[int]int64
}

// FailureFree is the pattern in which no process crashes.
func FailureFree() PatternSpec {
	return PatternSpec{"failure-free", func(int) map[int]int64 { return nil }}
}

// OneCrash crashes the middle process early (step 11).
func OneCrash() PatternSpec {
	return PatternSpec{"one-crash", func(n int) map[int]int64 {
		return map[int]int64{n / 2: 11}
	}}
}

// WaitFree crashes every process but p0, at staggered early times — the
// maximal crash count the wait-free protocols tolerate.
func WaitFree() PatternSpec {
	return PatternSpec{"wait-free", func(n int) map[int]int64 {
		m := make(map[int]int64, n-1)
		for i := 1; i < n; i++ {
			m[i] = int64(9 * i)
		}
		return m
	}}
}

// Wave crashes processes 1..n-1 in waves of the given size, one wave every
// gap steps starting at step gap. Small sizes with large gaps model slow
// cascading failures; large sizes with small gaps approach WaitFree.
func Wave(size int, gap int64) func(n int) map[int]int64 {
	return func(n int) map[int]int64 {
		if size < 1 {
			size = 1
		}
		m := make(map[int]int64, n-1)
		for i := 1; i < n; i++ {
			wave := int64((i-1)/size + 1)
			m[i] = wave * gap
		}
		return m
	}
}

// patternAxis builds the "pattern" axis from named specs.
func patternAxis(specs ...PatternSpec) lab.Axis {
	ax := lab.Axis{Name: "pattern"}
	for _, s := range specs {
		ax.Values = append(ax.Values, lab.Value{Name: s.Name, V: s})
	}
	return ax
}
