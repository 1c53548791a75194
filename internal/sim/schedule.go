package sim

import (
	"fmt"
	"math/rand"
)

// Schedule decides, at each time step, which of the enabled processes takes
// the next atomic step. enabled is never empty and the returned PID must be
// a member of it. Schedules model the asynchronous adversary: any fair
// schedule yields a legal run; unfair schedules model runs in which the
// starved processes are (or are indistinguishable from) faulty.
type Schedule interface {
	Next(t Time, enabled Set) PID
}

// Func adapts a function to the Schedule interface.
type Func func(t Time, enabled Set) PID

// Next implements Schedule.
func (f Func) Next(t Time, enabled Set) PID { return f(t, enabled) }

var _ Schedule = Func(nil)

// RoundRobin returns a fair schedule that cycles through the enabled
// processes in PID order.
func RoundRobin() Schedule { return &roundRobin{} }

// roundRobin is RoundRobin's rotation. Its zero value starts fresh.
type roundRobin struct {
	next PID // the last grant plus one: grants go to the lowest enabled PID from here
}

// Next implements Schedule: the lowest enabled PID above the last grant,
// wrapping around to the lowest enabled PID.
func (r *roundRobin) Next(_ Time, enabled Set) PID {
	if enabled == 0 {
		panic("sim: RoundRobin with empty enabled set")
	}
	p := lowest(enabled)
	// Shifting by 64 (after a grant to PID 63) leaves nothing above.
	if above := enabled & (^Set(0) << uint(r.next)); above != 0 {
		p = lowest(above)
	}
	r.next = p + 1
	return p
}

// NewRandom returns a schedule that picks uniformly at random among enabled
// processes, deterministically from the seed. Random schedules are fair with
// probability 1 over any finite budget.
func NewRandom(seed int64) Schedule {
	//lint:fdlint determinism -- instance-local rng seeded by the caller: the schedule is a pure function of (seed, query sequence); replacing it with fd.Mix would invalidate every recorded schedule baseline
	rng := rand.New(rand.NewSource(seed))
	return Func(func(_ Time, enabled Set) PID {
		//lint:fdlint determinism -- draws from the seed-determined instance rng above
		return enabled.Nth(rng.Intn(enabled.Len()))
	})
}

// Priority returns a schedule that always grants the first enabled process
// in the given order; processes not listed are ranked after the listed ones
// in PID order. Priority schedules are the building block of the paper's
// solo-run adversary constructions (e.g. "p_{n+1} is the only process that
// takes steps").
func Priority(order ...PID) Schedule {
	rank := make(map[PID]int, len(order))
	for i, p := range order {
		if _, dup := rank[p]; dup {
			panic(fmt.Sprintf("sim: duplicate PID %v in Priority order", p))
		}
		rank[p] = i
	}
	return Func(func(_ Time, enabled Set) PID {
		best := PID(-1)
		bestRank := int(^uint(0) >> 1)
		for t := enabled; t != 0; t &= t - 1 {
			p := lowest(t)
			r, ok := rank[p]
			if !ok {
				r = len(order) + int(p)
			}
			if r < bestRank {
				best, bestRank = p, r
			}
		}
		return best
	})
}

// Alternate returns a schedule that interleaves two schedules: the first for
// steps at even times, the second at odd times. Useful for mixing a targeted
// adversary with background fairness.
func Alternate(even, odd Schedule) Schedule {
	return Func(func(t Time, enabled Set) PID {
		if t%2 == 0 {
			return even.Next(t, enabled)
		}
		return odd.Next(t, enabled)
	})
}

// EventuallySynchronous models partial synchrony (Dwork–Lynch–Stockmeyer,
// the paper's [10]): before the global stabilization time gst the schedule
// is arbitrary (seeded random, possibly starving processes for long
// stretches); from gst on, every enabled process takes a step at least once
// every bound steps — the scheduler always grants the process that has
// waited longest once its wait reaches the bound. Timing-based failure
// detector implementations are exactly the algorithms that exploit such a
// schedule (paper Section 1).
func EventuallySynchronous(gst Time, bound int64, seed int64) Schedule {
	if bound < 1 {
		panic(fmt.Sprintf("sim: EventuallySynchronous bound %d", bound))
	}
	//lint:fdlint determinism -- instance-local rng seeded by the caller: the schedule is a pure function of (seed, query sequence); replacing it with fd.Mix would invalidate every recorded schedule baseline
	rng := rand.New(rand.NewSource(seed))
	lastRun := make(map[PID]Time)
	return Func(func(t Time, enabled Set) PID {
		var pick PID
		if t < gst {
			//lint:fdlint determinism -- draws from the seed-determined instance rng above
			pick = enabled.Nth(rng.Intn(enabled.Len()))
		} else {
			// Grant the longest-waiting enabled process when its wait hits
			// the bound; otherwise choose randomly (bounded nondeterminism).
			pick = PID(-1)
			var worst Time
			for s := enabled; s != 0; s &= s - 1 {
				p := lowest(s)
				waited := t - lastRun[p]
				if int64(waited) >= bound && (pick == -1 || lastRun[p] < worst) {
					pick, worst = p, lastRun[p]
				}
			}
			if pick == -1 {
				//lint:fdlint determinism -- draws from the seed-determined instance rng above
				pick = enabled.Nth(rng.Intn(enabled.Len()))
			}
		}
		lastRun[pick] = t
		return pick
	})
}

// Starve returns a schedule that never grants victim a step while any other
// process is enabled — an asynchronous run indistinguishable, to the
// others, from one where victim crashed. It defeats timing-based failure
// detector implementations, which is exactly why non-trivial detectors are
// oracles rather than algorithms.
func Starve(victim PID, fallback Schedule) Schedule {
	if fallback == nil {
		fallback = RoundRobin()
	}
	return Func(func(t Time, enabled Set) PID {
		rest := enabled.Remove(victim)
		if rest.IsEmpty() {
			return victim
		}
		return fallback.Next(t, rest)
	})
}

// Phase is one directive of a scripted schedule.
type Phase struct {
	// Pick chooses the process to run while the phase is active; nil means
	// round-robin over enabled.
	Pick func(t Time, enabled Set) PID
	// Done reports that the phase is over and the script should advance
	// (checked before each step). A nil Done with Steps == 0 never ends.
	Done func(t Time) bool
	// Steps, if positive, bounds the phase length in steps.
	Steps int64
}

// Solo returns a phase that runs only p (when enabled) for the given number
// of steps. If p is not enabled the phase falls back to the lowest enabled
// PID, which only happens if p crashed or returned.
func Solo(p PID, steps int64) Phase {
	return Phase{
		Pick: func(_ Time, enabled Set) PID {
			if enabled.Has(p) {
				return p
			}
			return enabled.Min()
		},
		Steps: steps,
	}
}

// EachOnce returns a phase in which every process present at its start takes
// exactly one step (in PID order), mirroring the proofs' "every process
// takes exactly one step" interludes.
func EachOnce() Phase {
	var pending Set
	started := false
	return Phase{
		Pick: func(_ Time, enabled Set) PID {
			if !started {
				pending = enabled
				started = true
			}
			togo := pending.Intersect(enabled)
			if togo.IsEmpty() {
				return enabled.Min()
			}
			p := togo.Min()
			pending = pending.Remove(p)
			return p
		},
		Done: func(_ Time) bool {
			return started && pending.IsEmpty()
		},
	}
}

// Script runs a sequence of phases, then behaves as fallback (round-robin if
// nil). Scripts drive the Theorem 1 / Theorem 5 adversary constructions.
type Script struct {
	phases   []Phase
	idx      int
	taken    int64
	fallback Schedule
}

// NewScript builds a scripted schedule.
func NewScript(fallback Schedule, phases ...Phase) *Script {
	if fallback == nil {
		fallback = RoundRobin()
	}
	return &Script{phases: phases, fallback: fallback}
}

// Append adds phases to the end of the script; legal even mid-run, which
// lets adversaries extend the script based on what the algorithm did.
func (s *Script) Append(phases ...Phase) { s.phases = append(s.phases, phases...) }

// PhaseIndex returns the index of the current phase (== number of finished
// phases; len(phases) when the script is exhausted).
func (s *Script) PhaseIndex() int { return s.idx }

// Next implements Schedule.
func (s *Script) Next(t Time, enabled Set) PID {
	for s.idx < len(s.phases) {
		ph := &s.phases[s.idx]
		if (ph.Steps > 0 && s.taken >= ph.Steps) || (ph.Done != nil && ph.Done(t)) {
			s.idx++
			s.taken = 0
			continue
		}
		s.taken++
		if ph.Pick == nil {
			return s.fallback.Next(t, enabled)
		}
		return ph.Pick(t, enabled)
	}
	return s.fallback.Next(t, enabled)
}

var _ Schedule = (*Script)(nil)
