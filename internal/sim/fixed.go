package sim

// FixedSchedule replays an explicit grant sequence: step i of the run goes to
// Prefix[i], and once the prefix is exhausted the schedule defers to
// round-robin. It is the replay hook of the schedule-space
// explorer (internal/explore): a counterexample artifact carries the granted
// PID sequence of a violating run, and re-executing it through a
// FixedSchedule reproduces that run step for step.
//
// A prefix entry that is not enabled at its turn (possible when a shrinker
// mutates the sequence, or when the program under replay changed) does not
// fault the run: the schedule falls through to round-robin for that step and
// records the divergence. Every schedule is a legal adversary, so a diverged
// replay is still a valid run — it just no longer retraces the original one.
type FixedSchedule struct {
	// Prefix is the grant sequence to replay, one PID per step.
	Prefix []PID
	// OnGrant, when non-nil, observes every scheduling decision: the 0-based
	// step index, the time, the enabled set and the granted PID. Artifact
	// replay uses it for step traces.
	OnGrant func(idx int, t Time, enabled Set, chosen PID)

	pos      int
	diverged bool
	// rr is the round-robin rotation that takes over after the prefix (and
	// for non-enabled prefix entries), fresh on every schedule.
	rr roundRobin
}

// NewFixedSchedule returns a FixedSchedule over the given prefix with a
// round-robin fallback.
func NewFixedSchedule(prefix []PID) *FixedSchedule {
	return &FixedSchedule{Prefix: prefix}
}

// Next implements Schedule.
func (s *FixedSchedule) Next(t Time, enabled Set) PID {
	idx := s.pos
	s.pos++
	var pick PID
	switch {
	case idx < len(s.Prefix) && enabled.Has(s.Prefix[idx]):
		pick = s.Prefix[idx]
	default:
		if idx < len(s.Prefix) {
			s.diverged = true
		}
		pick = s.rr.Next(t, enabled)
	}
	if s.OnGrant != nil {
		s.OnGrant(idx, t, enabled, pick)
	}
	return pick
}

// Granted returns how many steps the schedule has granted so far.
func (s *FixedSchedule) Granted() int { return s.pos }

// Diverged reports whether some prefix entry was skipped because its process
// was not enabled at its turn.
func (s *FixedSchedule) Diverged() bool { return s.diverged }

var _ Schedule = (*FixedSchedule)(nil)
