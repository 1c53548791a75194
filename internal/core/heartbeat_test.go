package core

import (
	"errors"
	"fmt"
	"testing"

	"weakestfd/internal/check"
	"weakestfd/internal/converge"
	"weakestfd/internal/sim"
)

// runHeartbeat drives the timing-based Υ implementation to its budget under
// the given schedule and returns the output trace.
func runHeartbeat(t *testing.T, pattern sim.Pattern, sched sim.Schedule, budget int64) (*HeartbeatUpsilon, *check.OutputTrace[sim.Set]) {
	t.Helper()
	n := pattern.N()
	hb := NewHeartbeatUpsilon(n, 4)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = hb.Machine()
	}
	trace := check.NewOutputTrace[sim.Set](n, hb.OutputAt)
	rep, err := sim.RunMachines(sim.Config{
		Pattern:  pattern,
		Schedule: sched,
		Budget:   budget,
		StopWhen: trace.Hook(),
	}, machines)
	if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatalf("heartbeat run: %v", err)
	}
	if !rep.BudgetExhausted {
		t.Fatal("heartbeat implementation should run to budget")
	}
	return hb, trace
}

func TestHeartbeatUpsilonUnderPartialSynchrony(t *testing.T) {
	// Under an eventually synchronous schedule the implemented output must
	// satisfy the Υ specification: stable, agreed, ≠ correct set.
	patterns := map[string]sim.Pattern{
		"failfree": sim.FailFree(4),
		"crash1":   sim.CrashPattern(4, map[sim.PID]sim.Time{2: 900}),
		"crash2":   sim.CrashPattern(4, map[sim.PID]sim.Time{0: 700, 3: 1_400}),
	}
	for name, pattern := range patterns {
		t.Run(name, func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				sched := sim.EventuallySynchronous(2_000, 8, seed)
				_, trace := runHeartbeat(t, pattern, sched, 60_000)
				stable, from, err := trace.StableFrom(pattern.Correct())
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := Upsilon(4).LegalStable(pattern, stable); err != nil {
					t.Fatalf("seed %d: implemented output illegal: %v", seed, err)
				}
				if from > 50_000 {
					t.Fatalf("seed %d: stabilized too late (%d)", seed, from)
				}
				// With crashes the suspected set must end up exactly faulty;
				// failure-free it must be the {p1} default.
				want := pattern.Faulty()
				if want.IsEmpty() {
					want = sim.SetOf(0)
				}
				if stable != want {
					t.Fatalf("seed %d: stable %v, want %v", seed, stable, want)
				}
			}
		})
	}
}

func TestHeartbeatUpsilonIndistinguishability(t *testing.T) {
	// The classic asynchrony argument: a starved correct process is
	// indistinguishable from a crashed one. Run the implementation twice —
	// failure-free with p3 starved, and with p3 actually crashed — under
	// the same schedule, and verify the survivors compute identical
	// outputs. (Υ is so weak that the output {p3} happens to be legal in
	// both patterns; what asynchrony destroys is stabilization, see the
	// next test.)
	n := 3
	budget := int64(20_000)
	run := func(pattern sim.Pattern) []sim.Set {
		hb := NewHeartbeatUpsilon(n, 4)
		machines := make([]sim.StepMachine, n)
		for i := range machines {
			machines[i] = hb.Machine()
		}
		_, err := sim.RunMachines(sim.Config{
			Pattern:  pattern,
			Schedule: sim.Starve(2, sim.RoundRobin()),
			Budget:   budget,
		}, machines)
		if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
			t.Fatal(err)
		}
		return []sim.Set{hb.OutputAt(0), hb.OutputAt(1)}
	}
	outStarved := run(sim.FailFree(n))
	outCrashed := run(sim.CrashPattern(n, map[sim.PID]sim.Time{2: 1}))
	for i := range outStarved {
		if outStarved[i] != outCrashed[i] {
			t.Fatalf("runs distinguishable at p%d: %v vs %v", i+1, outStarved[i], outCrashed[i])
		}
	}
	if outStarved[0] != sim.SetOf(2) {
		t.Fatalf("survivors should suspect exactly the starved process, got %v", outStarved[0])
	}
}

func TestHeartbeatUpsilonDefeatedByAsynchrony(t *testing.T) {
	// Υ is non-trivial: no algorithm implements it in a fully asynchronous
	// system. For the heartbeat implementation the witness is an adversary
	// whose starvation bursts grow faster than the doubling timeouts: every
	// burst eventually triggers a (false) suspicion, every recovery phase
	// retracts it, and the emulated output changes forever — violating Υ's
	// "eventually permanent" clause for any stabilization point.
	n := 3
	victim := sim.PID(2)
	hb := NewHeartbeatUpsilon(n, 4)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = hb.Machine()
	}

	// Phase k: starve the victim for 192·2^k steps, then round-robin for
	// 256 steps so the survivors see it move and retract.
	rr := sim.RoundRobin()
	var phase int
	var inPhase int64
	starving := true
	schedule := sim.Func(func(t sim.Time, enabled sim.Set) sim.PID {
		limit := int64(192) << uint(phase)
		if !starving {
			limit = 256
		}
		if inPhase >= limit {
			inPhase = 0
			if !starving {
				phase++
			}
			starving = !starving
		}
		inPhase++
		pool := enabled
		if starving {
			if rest := enabled.Remove(victim); !rest.IsEmpty() {
				pool = rest
			}
		}
		return rr.Next(t, pool)
	})

	changes := 0
	var prev sim.Set
	sampled := false
	_, err := sim.RunMachines(sim.Config{
		Pattern:  sim.FailFree(n),
		Schedule: schedule,
		Budget:   80_000,
		StopWhen: func(_ sim.Time) bool {
			cur := hb.OutputAt(0)
			if sampled && cur != prev {
				changes++
			}
			prev = cur
			sampled = true
			return false
		},
	}, machines)
	if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	if changes < 6 {
		t.Fatalf("adversary forced only %d output changes; expected sustained instability", changes)
	}
	t.Logf("growing-burst adversary forced %d output changes at p1", changes)
}

func TestTimedComposedSolvesSetAgreement(t *testing.T) {
	// The full arc: partial synchrony → heartbeat Υ → Figure 1, no oracle.
	for _, tc := range []struct {
		name    string
		pattern sim.Pattern
	}{
		{"failfree", sim.FailFree(4)},
		{"crash1", sim.CrashPattern(4, map[sim.PID]sim.Time{1: 400})},
		{"crash2", sim.CrashPattern(4, map[sim.PID]sim.Time{1: 300, 3: 600})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(0); seed < 3; seed++ {
				n := tc.pattern.N()
				c := NewTimedComposed(n, 4, converge.UseAtomic)
				proposals := make([]sim.Value, n)
				for i := range proposals {
					proposals[i] = sim.Value(100 + i)
				}
				rep, err := sim.RunTaskMachines(sim.Config{
					Pattern:  tc.pattern,
					Schedule: sim.EventuallySynchronous(1_000, 8, seed),
					Budget:   1 << 22,
				}, c.MachineTaskSets(proposals))
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if err := check.SetAgreement(rep, tc.pattern, c.K(), proposals); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
			}
		})
	}
}

func TestTimedComposedSafetyUnderPureAsynchrony(t *testing.T) {
	// Even when the timing assumption fails (a starved correct process
	// wrecks the implemented Υ's liveness guarantees), the protocol's
	// SAFETY is untouched: if processes decide, they decide ≤ n−1 valid
	// values. (Decisions still happen here: the starved run is
	// indistinguishable from a crash run, where the output is legal.)
	n := 4
	pattern := sim.FailFree(n)
	c := NewTimedComposed(n, 4, converge.UseAtomic)
	proposals := []sim.Value{100, 101, 102, 103}
	rep, err := sim.RunTaskMachines(sim.Config{
		Pattern:  pattern,
		Schedule: sim.Starve(3, sim.RoundRobin()),
		Budget:   1 << 20,
	}, c.MachineTaskSets(proposals))
	if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	distinct := rep.DecidedValues()
	if len(distinct) > n-1 {
		t.Fatalf("safety violated: %v", distinct)
	}
	for _, v := range distinct {
		if v < 100 || v > 103 {
			t.Fatalf("validity violated: %v", distinct)
		}
	}
}

func TestEventuallySynchronousBound(t *testing.T) {
	// After GST, no enabled process waits more than the bound.
	n := 4
	gst := sim.Time(200)
	bound := int64(6)
	sched := sim.EventuallySynchronous(gst, bound, 3)
	last := make([]sim.Time, n)
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = &yieldMachine{steps: -1}
	}
	var worst int64
	log := sim.NewAccessLog()
	_, err := sim.RunMachines(sim.Config{
		Pattern:   sim.FailFree(n),
		Schedule:  sched,
		Budget:    5_000,
		AccessLog: log,
	}, machines)
	for i := 0; i < log.Steps(); i++ {
		p, _ := log.Step(i)
		at := sim.Time(i + 1)
		if at > gst+gst && last[p] > gst {
			if wait := int64(at - last[p]); wait > worst {
				worst = wait
			}
		}
		last[p] = at
	}
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	// The longest-waiting rule admits a small constant slack when several
	// processes hit the bound simultaneously.
	if worst > bound+int64(n) {
		t.Fatalf("post-GST wait %d exceeds bound %d (+n slack)", worst, bound)
	}
}

func TestStarveSchedule(t *testing.T) {
	var granted sim.Set
	log := sim.NewAccessLog()
	_, err := sim.RunMachines(sim.Config{
		Pattern:   sim.FailFree(3),
		Schedule:  sim.Starve(1, nil),
		Budget:    100,
		AccessLog: log,
	}, []sim.StepMachine{&yieldMachine{steps: -1}, &yieldMachine{steps: -1}, &yieldMachine{steps: -1}})
	for i := 0; i < log.Steps(); i++ {
		p, _ := log.Step(i)
		granted = granted.Add(p)
	}
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	if granted.Has(1) {
		t.Fatal("victim was granted a step")
	}
	if !granted.Has(0) || !granted.Has(2) {
		t.Fatal("others starved")
	}
}

func TestHeartbeatValidation(t *testing.T) {
	for _, tc := range []struct{ n, thr int }{{1, 4}, {3, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHeartbeatUpsilon(%d, %d) should panic", tc.n, tc.thr)
				}
			}()
			NewHeartbeatUpsilon(tc.n, int64(tc.thr))
		}()
	}
}

func TestHeartbeatThresholdAdaptation(t *testing.T) {
	// A bursty-but-fair schedule provokes early false suspicions; the
	// doubling thresholds must absorb them and still stabilize legally.
	n := 3
	pattern := sim.FailFree(n)
	// Bursts: each process runs 40 steps at a time, rotating.
	burst := sim.Func(func(t sim.Time, enabled sim.Set) sim.PID {
		idx := int(t/40) % n
		for i := 0; i < n; i++ {
			p := sim.PID((idx + i) % n)
			if enabled.Has(p) {
				return p
			}
		}
		return enabled.Min()
	})
	hb := NewHeartbeatUpsilon(n, 2) // small patience: false suspicions early
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = hb.Machine()
	}
	trace := check.NewOutputTrace[sim.Set](n, hb.OutputAt)
	_, err := sim.RunMachines(sim.Config{
		Pattern:  pattern,
		Schedule: burst,
		Budget:   80_000,
		StopWhen: trace.Hook(),
	}, machines)
	if err != nil && !errors.Is(err, sim.ErrBudgetExhausted) {
		t.Fatal(err)
	}
	stable, from, err := trace.StableFrom(pattern.Correct())
	if err != nil {
		t.Fatal(err)
	}
	if err := Upsilon(n).LegalStable(pattern, stable); err != nil {
		t.Fatalf("output %v illegal: %v", stable, err)
	}
	t.Logf("stabilized on %v at %d under 40-step bursts", stable, from)
	_ = fmt.Sprint(from)
}
