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
	return &random{rng: rand.New(rand.NewSource(seed))}
}

// random is NewRandom's schedule.
type random struct {
	rng *rand.Rand
}

// Next implements Schedule. An enabled set has at most MaxProcs members, so
// Int31n draws exactly what rng.Intn(enabled.Len()) would, without Intn's
// range dispatch: the pick sequence of every seed is Intn's.
func (r *random) Next(_ Time, enabled Set) PID {
	//lint:fdlint determinism -- draws from the seed-determined instance rng NewRandom built
	return enabled.Nth(int(r.rng.Int31n(int32(enabled.Len()))))
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
