package explore

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"weakestfd/internal/sim"
)

// worldStep is one recorded step, its accesses named by key.
type worldStep struct {
	p    sim.PID
	accs []string
}

// worldTrace is everything a run on a world shows the explorer.
type worldTrace struct {
	report  string
	err     string
	steps   []worldStep
	digests []uint64 // StateDigest after every step up to the horizon
	outputs []sim.Set
	settled bool
	stable  sim.Set
}

// instanceSpy keeps the last Instance its system returned.
type instanceSpy struct {
	System
	last Instance
}

func (s *instanceSpy) Instantiate(pattern sim.Pattern, o OracleChoice) Instance {
	s.last = s.System.Instantiate(pattern, o)
	return s.last
}

// traceWorldRun runs job on an Instantiate of sys under sched, recorded
// into log with its digest on through st, as the search records its runs,
// and returns what the run showed and its instance.
func traceWorldRun(t *testing.T, st *runStore, sys System, job Job, sched sim.Schedule, budget int64, horizon int, log *sim.AccessLog) (worldTrace, Instance) {
	t.Helper()
	log.Reset()
	var tr worldTrace
	stop := func(now sim.Time) bool {
		if int(now) <= horizon {
			tr.digests = append(tr.digests, log.StateDigest())
		}
		return false
	}
	spy := &instanceSpy{System: sys}
	run := st.execute(spy, job.Pattern, job.Oracle, sched, budget, log, stop)
	rep, err := json.Marshal(run.Report)
	if err != nil {
		t.Fatal(err)
	}
	tr.report = string(rep)
	if run.Err != nil {
		tr.err = run.Err.Error()
	}
	for i := 0; i < log.Steps(); i++ {
		p, accs := log.Step(i)
		step := worldStep{p: p}
		for _, a := range accs {
			step.accs = append(step.accs, a.Kind.String()+"("+log.Key(a.Obj).String()+")")
		}
		tr.steps = append(tr.steps, step)
	}
	tr.outputs = append([]sim.Set(nil), run.Outputs...)
	tr.settled, tr.stable = run.OutputsSettled, run.StableOutput
	return tr, spy.last
}

// drainWorlds empties sys's free list, so that its next Instantiate builds
// a fresh world.
func drainWorlds(sys System) {
	switch s := sys.(type) {
	case fig1System:
		drain(&fig1Worlds, s)
	case fig2System:
		drain(&fig2Worlds, s)
	case extractSystem:
		drain(&extractWorlds, s)
	case composedSystem:
		drain(&composedWorlds, s)
	case timedComposedSystem:
		drain(&timedComposedWorlds, s)
	default:
		panic(fmt.Sprintf("drainWorlds: no world pool for %T", sys))
	}
}

func drain[S comparable](pool *worldPool[S], sys S) {
	for pool.get(sys) != nil {
	}
}

// TestRearmedWorldMatchesFresh: a world re-armed after a run of another
// configuration behaves as a freshly built one. For every registry system,
// the compositions' task-set wrappers included, and every mutant, at n = 2
// and 3 with f = n−1, a sample of the switch-budget-1 configurations (crash
// patterns at times 0 and 3, histories flipping at 2 and 14) each runs a
// schedule twice — seeded random, or round-robin, which drives the
// agreement protocols past their first converge into the gladiator rounds —
// recorded with the access log's digest on: once on a fresh world, and once
// on the world that a round-robin run of another configuration (otherJob)
// has just released, so the re-armed world's converge instances and
// snapshots are re-keyed to other parameters. Each of the two runs is the
// second run recorded into its log, after that same other run on a fresh
// world, so both logs intern the same keys in the same order. The Report
// JSON, the run error, every step's process and access set, the state
// digest after every step up to the horizon, and the Finish outputs must be
// equal.
func TestRearmedWorldMatchesFresh(t *testing.T) {
	const horizon = 48
	stride := 3
	if testing.Short() {
		stride = 17
	}
	compared := 0
	for _, name := range SystemNames() {
		for _, n := range []int{2, 3} {
			sys, err := NewSystem(name, n, n-1)
			if err != nil {
				t.Fatal(err)
			}
			budget := int64(2048)
			if _, ok := sys.(extractSystem); ok {
				budget = 256
			}
			jobs := EnumerateJobs(Config{System: sys, SwitchBudget: 1})
			for j := 0; j < len(jobs); j += stride {
				job, other := jobs[j], otherJob(jobs, j)
				sched := func() sim.Schedule {
					if j%2 == 0 {
						return sim.RoundRobin()
					}
					return sim.NewRandom(int64(j))
				}

				// A fresh world, on a log that first recorded the other run
				// on a fresh world it kept.
				drainWorlds(sys)
				st, log := &runStore{name: name}, sim.NewAccessLog()
				log.EnableDigest()
				traceWorldRun(t, st, sys, other, sim.RoundRobin(), budget, horizon, log)
				fresh, _ := traceWorldRun(t, st, sys, job, sched(), budget, horizon, log)

				// The same other run on a fresh world that it releases, then
				// the job on that world, re-armed.
				drainWorlds(sys)
				st, log = &runStore{name: name}, sim.NewAccessLog()
				log.EnableDigest()
				_, used := traceWorldRun(t, st, sys, other, sim.RoundRobin(), budget, horizon, log)
				used.release()
				rearmed, inst := traceWorldRun(t, st, sys, job, sched(), budget, horizon, log)
				inst.release()
				if inst.Machines[0] != used.Machines[0] {
					t.Fatalf("%s n=%d: the second Instantiate did not re-arm the released world", name, n)
				}
				compared++

				if d := diffTraces(fresh, rearmed); d != "" {
					t.Fatalf("%s n=%d %s (schedule %d), after %s: re-armed world differs from a fresh one: %s",
						name, n, job.Label(), j, other.Label(), d)
				}
			}
		}
	}
	if compared < 100 {
		t.Fatalf("compared %d runs; the sample is too small to mean much", compared)
	}
	t.Logf("%d runs on re-armed worlds matched fresh ones", compared)
}

// otherJob returns the next job after jobs[j], cyclically, with the same
// failure pattern and a stable detector output of another size, or the
// next job when there is none: on it, an agreement protocol's gladiators
// run converge instances and snapshots of another parameter, so re-arming
// its world for jobs[j] re-keys them.
func otherJob(jobs []Job, j int) Job {
	for k := 1; k < len(jobs); k++ {
		o := jobs[(j+k)%len(jobs)]
		if patternLabel(o.Pattern) == patternLabel(jobs[j].Pattern) && o.Oracle.Stable.Len() != jobs[j].Oracle.Stable.Len() {
			return o
		}
	}
	return jobs[(j+1)%len(jobs)]
}

// diffTraces names the first difference between two traces, "" when equal.
func diffTraces(a, b worldTrace) string {
	switch {
	case a.report != b.report:
		return "report " + b.report + ", fresh " + a.report
	case a.err != b.err:
		return "error " + b.err + ", fresh " + a.err
	case a.settled != b.settled || a.stable != b.stable || !reflect.DeepEqual(a.outputs, b.outputs):
		return "Finish outputs differ"
	}
	for i := range a.steps {
		if i >= len(b.steps) || !reflect.DeepEqual(a.steps[i], b.steps[i]) {
			var got []string
			if i < len(b.steps) {
				got = b.steps[i].accs
			}
			return fmt.Sprintf("step %d: %s, fresh %s", i, strings.Join(got, " "), strings.Join(a.steps[i].accs, " "))
		}
	}
	if len(a.steps) != len(b.steps) {
		return "step counts differ"
	}
	if !reflect.DeepEqual(a.digests, b.digests) {
		return "state digests differ"
	}
	return ""
}
