package main

import (
	"fmt"
	"math/rand"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// The step ladder: seeded random runs of Figure 1 and of the Figure 3
// extraction, recorded once and replayed through sim.RunMachines on three
// rungs — bare (nil access log), logged (an access log) and seamed (a log
// with the state digest on and a query seam over the instance's detector
// histories, the way the explorer records its runs). Instantiate is timed
// apart from the steps. Adjacent rungs differ by one recording layer, so
// their difference is that layer's price per step.

type rung int

const (
	bare rung = iota
	logged
	seamed
	rungs
)

var rungNames = [rungs]string{"bare", "logged", "seamed"}

const (
	// ladderRunsPerSystem recorded runs each of fig1 and the extraction.
	ladderRunsPerSystem = 12
	// ladderPasses timed replays of every recorded run, per rung.
	ladderPasses = 200
)

// ladderCase is one recorded run.
type ladderCase struct {
	sys      explore.System
	job      explore.Job
	schedule []sim.PID
	budget   int64
}

// randomSchedule grants a uniformly random enabled process and records
// the grants.
type randomSchedule struct {
	rng     *rand.Rand
	granted []sim.PID
}

func (s *randomSchedule) Next(_ sim.Time, enabled sim.Set) sim.PID {
	p := enabled.Nth(s.rng.Intn(enabled.Len()))
	s.granted = append(s.granted, p)
	return p
}

// recordLadder records the ladder's runs over configurations drawn from the
// switch-budget-1 job spaces of fig1 n=3 and the extraction at n=3, so the
// seamed rung replays detector flips too.
func recordLadder(seed int64) []ladderCase {
	rng := rand.New(rand.NewSource(seed))
	var cases []ladderCase
	for _, c := range []struct {
		sys    explore.System
		budget int64
	}{
		{explore.Fig1System(3), 2048},
		{explore.ExtractOmegaSystem(3), 768},
	} {
		jobs := explore.EnumerateJobs(explore.Config{System: c.sys, SwitchBudget: 1, Budget: c.budget})
		for i := 0; i < ladderRunsPerSystem; i++ {
			job := jobs[rng.Intn(len(jobs))]
			sched := &randomSchedule{rng: rng}
			inst := c.sys.Instantiate(job.Pattern, job.Oracle)
			// Extraction runs never terminate and end on the budget with an
			// error; their schedule is complete all the same.
			_, _ = sim.RunMachines(sim.Config{Pattern: job.Pattern, Schedule: sched, Budget: c.budget}, inst.Machines)
			cases = append(cases, ladderCase{sys: c.sys, job: job, schedule: sched.granted, budget: c.budget})
		}
	}
	return cases
}

// replay runs every case once on rung r and returns the time spent running
// (Instantiate excluded) and the steps taken.
func replay(cases []ladderCase, r rung) (time.Duration, int64, error) {
	var log *sim.AccessLog
	if r != bare {
		log = sim.NewAccessLog()
		if r == seamed {
			log.EnableDigest()
		}
	}
	var run time.Duration
	var steps int64
	for _, c := range cases {
		inst := c.sys.Instantiate(c.job.Pattern, c.job.Oracle)
		start := time.Now()
		log.Reset()
		cfg := sim.Config{Pattern: c.job.Pattern, Schedule: sim.NewFixedSchedule(c.schedule), Budget: c.budget, AccessLog: log}
		if r == seamed {
			seam := sim.NewQuerySeam(log)
			for _, h := range inst.Histories {
				seam.Register(h.Name, h.H)
			}
			cfg.Queries = seam
		}
		rep, _ := sim.RunMachines(cfg, inst.Machines)
		run += time.Since(start)
		if rep.Steps != int64(len(c.schedule)) {
			return 0, 0, fmt.Errorf("step ladder: %s replay on the %s rung took %d steps, the recorded run %d",
				c.sys.Name(), rungNames[r], rep.Steps, len(c.schedule))
		}
		steps += rep.Steps
	}
	return run, steps, nil
}

// runLadder returns the nanoseconds per step of every rung. One untimed
// pass per rung warms up first; the timed passes rotate the rung order so
// slow drift of the host spreads evenly over the rungs.
func runLadder(seed int64) ([rungs]float64, error) {
	var out [rungs]float64
	cases := recordLadder(seed)
	for r := bare; r < rungs; r++ {
		if _, _, err := replay(cases, r); err != nil {
			return out, err
		}
	}
	var runNS [rungs]time.Duration
	var steps [rungs]int64
	for p := 0; p < ladderPasses; p++ {
		for k := 0; k < int(rungs); k++ {
			r := rung((p + k) % int(rungs))
			run, n, err := replay(cases, r)
			if err != nil {
				return out, err
			}
			runNS[r] += run
			steps[r] += n
		}
	}
	for r := range out {
		out[r] = ratio(float64(runNS[r]), float64(steps[r]))
	}
	return out, nil
}
