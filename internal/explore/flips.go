package explore

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"weakestfd/internal/sim"
)

// Flip-schedule enumeration: the SwitchBudget dimension of the sweep. The
// paper's lower-bound adversaries act *before* a detector history
// stabilizes — a history may output arbitrary range values until some finite
// time, and only its eventual output is constrained. PR 4 pinned every
// explored history to its stable value from time 0 (sound for finding
// stable-history bugs, blind to unstable-prefix ones); with the query seam
// making detector queries first-class accesses, the sweep can now also
// enumerate *when* each history flips: per (pattern, stable value), every
// schedule of at most SwitchBudget pre-stabilization output switches, with
// phase outputs drawn from the detector's range and flip times from a small
// global-time grid (Config.FlipTimes), exactly like the crash-time grid.
// Each choice is one more configuration; within it, either DPOR engine still
// quantifies over every schedule, so "process p queried just before the
// flip, q just after" is reached whenever any interleaving reaches it.

// FlipPhase is one pre-stabilization phase of an explored history: the
// history outputs Out (uniformly, at every process) while t < Until. A
// choice's phases are ordered by strictly increasing Until; the last Until
// is the history's stabilization time.
type FlipPhase struct {
	// Until is the phase's exclusive end time — the global step time the
	// history flips at.
	Until sim.Time
	// Out is the phase's output as a process set (a singleton for Ω-range
	// histories).
	Out sim.Set
}

// SwitchPlan bounds the flip schedules a system enumerates per history:
// at most Budget output switches, each at a time drawn from Times (strictly
// increasing within one schedule). A zero plan (Budget 0) enumerates only
// stable-from-0 histories — the PR-4 space.
type SwitchPlan struct {
	Budget int
	Times  []sim.Time
}

// sortedTimes normalizes a time grid to strictly increasing entries, all
// >= lo: entries below lo and duplicates are dropped, and an
// already-normalized grid is returned as-is. Crash grids use lo 0. Flip
// grids use lo 2, the form flipVariants assumes: a phase's output applies
// to t < its end time and the first step runs at t=1, so a flip at time
// <= 1 is unobservable — its variant would duplicate the stable-from-0 base
// while the flip write still conflicted with every time-1 query under
// DPOR.
func sortedTimes(grid []sim.Time, lo sim.Time) []sim.Time {
	ok := true
	for i, t := range grid {
		if t < lo || (i > 0 && t <= grid[i-1]) {
			ok = false
			break
		}
	}
	if ok {
		return grid
	}
	out := make([]sim.Time, 0, len(grid))
	for _, t := range grid {
		if t >= lo {
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	out = slices.Compact(out)
	return out
}

// flipName renders a flipped choice's display name: the stable choice's name
// plus the unstable prefix, e.g. "U={p1} pre[{p1,p2}<8]" for a history that
// outputs {p1,p2} until time 8 and {p1} from then on.
func flipName(base string, flips []FlipPhase) string {
	if len(flips) == 0 {
		return base
	}
	var b strings.Builder
	b.WriteString(base)
	b.WriteString(" pre[")
	for i, f := range flips {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%v<%d", f.Out, int64(f.Until))
	}
	b.WriteByte(']')
	return b.String()
}

// withFlips returns the stable choice o extended with the given unstable
// prefix (renamed accordingly, remembering the base name for the shrinker).
func (o OracleChoice) withFlips(flips []FlipPhase) OracleChoice {
	base := o.Name
	if o.base != "" {
		base = o.base
	}
	o.Flips = flips
	o.Name = flipName(base, flips)
	if len(flips) > 0 {
		o.base = base
	} else {
		o.base = ""
	}
	return o
}

// flipVariants expands each stable base choice with every flip schedule the
// plan allows: for k = 1..Budget switches, every strictly increasing k-tuple
// of flip times from the plan's grid and every assignment of phase outputs
// from domain with adjacent phases (and the last phase vs the stable value)
// distinct — equal adjacent outputs would be the same history with a
// redundant label. The stable-from-0 base choices are always included first,
// so a Budget-0 plan returns base unchanged.
//
// The recursion backtracks through one shared phase buffer (allocated once,
// capacity Budget) instead of growing a fresh prefix slice per call; the only
// per-schedule allocation left is the owned copy handed to withFlips on
// emission. Emission order is part of the enumeration's contract — fleet
// sharding and checkpoint resume index into it — and is unchanged.
func flipVariants(base []OracleChoice, domain []sim.Set, plan SwitchPlan) []OracleChoice {
	out := append([]OracleChoice(nil), base...)
	if plan.Budget <= 0 || len(plan.Times) == 0 || len(domain) == 0 {
		return out
	}
	scratch := make([]FlipPhase, 0, plan.Budget)
	var cur OracleChoice
	var build func(nextTime int)
	build = func(nextTime int) {
		if len(scratch) > 0 {
			// The phase list is a complete schedule at every length.
			if scratch[len(scratch)-1].Out != cur.Stable {
				out = append(out, cur.withFlips(append([]FlipPhase(nil), scratch...)))
			}
		}
		if len(scratch) >= plan.Budget {
			return
		}
		for ti := nextTime; ti < len(plan.Times); ti++ {
			for _, v := range domain {
				if len(scratch) > 0 && v == scratch[len(scratch)-1].Out {
					continue // no-op switch
				}
				scratch = append(scratch, FlipPhase{Until: plan.Times[ti], Out: v})
				build(ti + 1)
				scratch = scratch[:len(scratch)-1]
			}
		}
	}
	for _, b := range base {
		cur = b
		build(0)
	}
	return out
}

// upsilonRange enumerates the range of a Υ^f detector — every process set of
// size ≥ n+1−f, *including* the correct set: legality constrains only the
// eventual output, so the most adversarial pre-stabilization values (the
// correct set itself, the one the stable output may never be) are fair game.
func upsilonRange(n, minSize int) []sim.Set {
	var out []sim.Set
	full := sim.FullSet(n)
	for bits := sim.Set(1); bits <= full; bits++ {
		if bits.Len() >= minSize {
			out = append(out, bits)
		}
	}
	return out
}

// omegaRange enumerates the range of an Ω source — every process, correct or
// not, as a singleton set (pre-stabilization Ω may output anyone).
func omegaRange(n int) []sim.Set {
	out := make([]sim.Set, n)
	for i := range out {
		out[i] = sim.SetOf(sim.PID(i))
	}
	return out
}

// validateFlips checks an externally supplied flip schedule (artifact
// replay): strictly increasing positive times, outputs within Π.
func validateFlips(flips []FlipPhase, n int) error {
	var last sim.Time
	for i, f := range flips {
		if f.Until <= last {
			return fmt.Errorf("explore: flip %d at time %d does not follow %d", i, f.Until, last)
		}
		if f.Out.IsEmpty() || !f.Out.SubsetOf(sim.FullSet(n)) {
			return fmt.Errorf("explore: flip %d output %v not a non-empty subset of Π (n=%d)", i, f.Out, n)
		}
		last = f.Until
	}
	return nil
}
