package explore

import (
	"testing"

	"weakestfd/internal/sim"
)

// TestShrinkDropsIrrelevantCrash pins the configuration-minimizing half of
// the shrinker on a known fig1 mutant witness: take a violating schedule of
// the wrong-adopt mutant discovered under failure-free n=2, re-discover the
// same violation under a pattern whose crash never fires within the run's
// horizon, and shrink. The crash is not load-bearing, so the witness
// pattern must drop it — and the artifact must record the shrunk
// (failure-free) configuration and still replay.
func TestShrinkDropsIrrelevantCrash(t *testing.T) {
	cfg := Config{
		System:   mustSystem("fig1-broken-adopt", 2, 1),
		MaxDepth: 24,
		Budget:   2048,
	}.withDefaults()

	// Find a violating schedule under failure-free (deterministic). Crashing
	// p2 makes {p1} the correct set, so pick a violation whose oracle stays
	// legal once the spurious crash is added (its stable set must differ
	// from {p1}).
	base := Explore(Config{System: mustSystem("fig1-broken-adopt", 2, 1), MaxDepth: 24, Budget: 2048, Workers: 1})
	pattern := sim.CrashPattern(2, map[sim.PID]sim.Time{1: 100_000})
	var schedule []sim.PID
	var oracle OracleChoice
	found := false
	for _, v := range base.Violations {
		if v.Property != (AtMostK{}).Name() {
			continue // the re-execution below checks AtMostK specifically
		}
		o, legal := matchOracle(cfg.System, pattern, v.Artifact.oracleChoice())
		if !legal {
			continue
		}
		for _, s := range v.Artifact.Schedule {
			schedule = append(schedule, sim.PID(s))
		}
		oracle, found = o, true
		break
	}
	if !found {
		t.Fatal("no baseline violation with an oracle legal under the crash-augmented pattern")
	}

	// Re-execute the same schedule under the pattern whose p2 crash fires
	// far beyond the horizon: the run is step-identical, the violation
	// persists, but the pattern now carries a spurious crash.
	run := execute(cfg.System, pattern, oracle, sim.NewFixedSchedule(schedule), cfg.Budget, nil, nil)
	run.Schedule = schedule
	prop := AtMostK{}
	if err := prop.Check(run); err == nil {
		t.Fatal("violation did not reproduce under the crash-augmented pattern")
	}

	w := shrink(cfg, run, prop)
	if w.message == "" {
		t.Fatal("shrink could not reproduce its own input")
	}
	if !w.pattern.Faulty().IsEmpty() {
		t.Fatalf("shrinker kept the irrelevant crash: witness pattern %s", patternLabel(w.pattern))
	}
	if got, want := len(w.schedule), len(schedule); got > want {
		t.Fatalf("schedule grew during shrinking: %d > %d", got, want)
	}
	if w.oracle.Stable.Len() > oracle.Stable.Len() {
		t.Fatalf("oracle grew during shrinking: %v from %v", w.oracle.Stable, oracle.Stable)
	}

	// The witness must round-trip through an artifact replay.
	a := newArtifact(cfg, run, prop.Name(), w, mustPattern("unclassified"))
	if len(a.Crashes) != 0 {
		t.Fatalf("artifact kept crashes: %v", a.Crashes)
	}
	_, violation, err := a.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if violation == nil {
		t.Fatal("shrunk witness did not replay")
	}
}

// oracleChoice rebuilds the OracleChoice recorded in an artifact (test
// helper).
func (a *Artifact) oracleChoice() OracleChoice {
	var stable sim.Set
	for _, p := range a.OracleStable {
		stable = stable.Add(sim.PID(p))
	}
	return OracleChoice{Name: a.OracleName, Stable: stable}
}

// TestShrinkHelpers covers the pattern/oracle helpers directly.
func TestShrinkHelpers(t *testing.T) {
	p := sim.CrashPattern(3, map[sim.PID]sim.Time{0: 0, 2: 3})
	q := dropCrash(p, 0)
	if q.Faulty() != sim.SetOf(2) || q.CrashAt(2) != 3 {
		t.Fatalf("dropCrash(p0) = %s", patternLabel(q))
	}
	sys := Fig1System(3)
	// The correct set of the failure-free pattern is an illegal stable set.
	if _, legal := matchOracle(sys, sim.FailFree(3), OracleChoice{Stable: sim.FullSet(3)}); legal {
		t.Fatal("matchOracle accepted the correct set as a Υ history")
	}
	if o, legal := matchOracle(sys, sim.FailFree(3), OracleChoice{Stable: sim.SetOf(1)}); !legal || o.Stable != sim.SetOf(1) {
		t.Fatalf("matchOracle rejected a legal set: %v %v", o, legal)
	}
}
