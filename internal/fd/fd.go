package fd

import (
	"fmt"

	"weakestfd/internal/sim"
)

// QueryAt is process p's failure detector query at time t: it evaluates
// oracle h and asserts the output type, panicking if the history does not
// yield a T. The caller (a sim.StepMachine) is charged the step by the
// runner. The query routes through the run's query seam q (from
// sim.MachineContext.Queries; nil evaluates the oracle directly) so that on
// recorded runs it is a first-class read of the history's virtual object.
func QueryAt[T any](q *sim.QuerySeam, h sim.Oracle, p sim.PID, t sim.Time) T {
	v := q.Query(h, p, t)
	out, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("fd: oracle output %T, algorithm expected %T", v, out))
	}
	return out
}

// Stabilizing is an oracle that outputs Noise(p, t) strictly before time TS
// and Stable from TS on, at every process. It realizes the ubiquitous
// "eventually the same value is permanently output at all correct processes"
// shape: before TS anything goes; after TS the history is stable in the
// paper's Section 6.2 sense.
type Stabilizing[T any] struct {
	// TS is the stabilization time; 0 makes the history stable from the
	// start.
	TS sim.Time
	// Stable is the permanent output from TS on.
	Stable T
	// Noise produces the pre-stabilization output; nil means Stable is
	// output from the start regardless of TS.
	Noise func(p sim.PID, t sim.Time) T
}

// Value implements sim.Oracle.
func (s *Stabilizing[T]) Value(p sim.PID, t sim.Time) any {
	if t < s.TS && s.Noise != nil {
		return s.Noise(p, t)
	}
	return s.Stable
}

var _ sim.Oracle = (*Stabilizing[int])(nil)

// Constant returns an oracle that outputs v at every process forever — the
// paper's "dummy" failure detector I_d, implementable in any asynchronous
// system and hence providing no failure information.
func Constant[T any](v T) sim.Oracle {
	return &Stabilizing[T]{Stable: v}
}

// FuncOracle adapts a function to sim.Oracle.
type FuncOracle func(p sim.PID, t sim.Time) any

// Value implements sim.Oracle.
func (f FuncOracle) Value(p sim.PID, t sim.Time) any { return f(p, t) }

var _ sim.Oracle = FuncOracle(nil)

// Mix is a deterministic pseudo-random mixer (splitmix64): the noise source
// for pre-stabilization detector output. It is a pure function, so histories
// built on it are pure functions of (seed, p, t) and runs stay reproducible.
func Mix(seed int64, p sim.PID, t sim.Time) uint64 {
	x := uint64(seed) ^ uint64(p)*0x9e3779b97f4a7c15 ^ uint64(t)*0xbf58476d1ce4e5b9
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NoisePID returns a pseudo-random process id in [0, n).
func NoisePID(seed int64, n int, p sim.PID, t sim.Time) sim.PID {
	return sim.PID(Mix(seed, p, t) % uint64(n))
}

// NoiseSet returns a pseudo-random non-empty subset of {0..n-1}.
func NoiseSet(seed int64, n int, p sim.PID, t sim.Time) sim.Set {
	m := Mix(seed, p, t)
	s := sim.Set(m) & sim.FullSet(n)
	if s.IsEmpty() {
		return sim.SetOf(sim.PID(m % uint64(n)))
	}
	return s
}

// NoiseSetOfSize returns a pseudo-random subset of {0..n-1} with exactly k
// members.
func NoiseSetOfSize(seed int64, n, k int, p sim.PID, t sim.Time) sim.Set {
	if k < 0 || k > n {
		panic(fmt.Sprintf("fd: NoiseSetOfSize k=%d n=%d", k, n))
	}
	perm := noisePerm(seed, n, p, t)
	var s sim.Set
	for i := 0; i < k; i++ {
		s = s.Add(sim.PID(perm[i]))
	}
	return s
}

func noisePerm(seed int64, n int, p sim.PID, t sim.Time) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	m := Mix(seed, p, t)
	for i := n - 1; i > 0; i-- {
		j := int(m % uint64(i+1))
		m = Mix(int64(m), p, t)
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}
