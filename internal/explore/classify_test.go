package explore

import (
	"testing"

	"weakestfd/internal/sim"
)

// TestPatternLibraryIntegrity pins the taxonomy's invariants: stable unique
// names, complete signature/narrative text, and "unclassified" as the final
// fallback entry.
func TestPatternLibraryIntegrity(t *testing.T) {
	pats := Patterns()
	if len(pats) == 0 {
		t.Fatal("empty pattern library")
	}
	seen := make(map[string]bool)
	for _, p := range pats {
		if p.Name == "" || p.Signature == "" || p.Narrative == "" {
			t.Errorf("pattern %+v has empty fields", p)
		}
		if seen[p.Name] {
			t.Errorf("duplicate pattern name %q", p.Name)
		}
		seen[p.Name] = true
		got, ok := PatternByName(p.Name)
		if !ok || got.Name != p.Name {
			t.Errorf("PatternByName(%q) did not round-trip", p.Name)
		}
	}
	if pats[len(pats)-1].Name != "unclassified" {
		t.Errorf("last library entry is %q, want the unclassified fallback", pats[len(pats)-1].Name)
	}
	if _, ok := PatternByName("no-such-pattern"); ok {
		t.Error("PatternByName resolved an unknown name")
	}
}

// syntheticAccess is one step of a hand-built access trace.
type syntheticAccess struct {
	pid  sim.PID
	obj  sim.ObjKey
	kind sim.AccessKind
}

// Keys of the protocol objects the synthetic traces touch, built the way
// internal/core and internal/converge build them.
var (
	testKeyD        = sim.KeyOf("D")
	testKeyDr       = sim.NameOf("D").Key(sim.ObjRound)
	testKeyStable   = sim.NameOf("Stable").Key(sim.ObjRound)
	testKeyGlad     = sim.NameOf("A").Key(sim.ObjGladiator)
	testKeyNConv    = sim.NameOf("nconv").Key(sim.ObjConverge)
	testKeyGConv    = sim.NameOf("gconv").Key(sim.ObjConverge)
	testKeyFConv    = sim.NameOf("fconv").Key(sim.ObjConverge)
	testKeyChanged  = sim.KeyOf("Changed")
	testKeyReports  = sim.KeyOf("R")
	testKeyHistory  = sim.KeyOf("H(U)")
	testKeyConvCell = testKeyNConv.WithRound(1).WithSub(0, 2).WithPart(0).WithCell(0)
)

func syntheticLog(steps []syntheticAccess) *sim.AccessLog {
	log := sim.NewAccessLog()
	for _, s := range steps {
		log.BeginStep()
		log.Record(log.Intern(s.obj), s.kind)
		log.EndStep(s.pid)
	}
	return log
}

// classifyRun builds the minimal Run the classifier inspects.
func classifyRun(pattern sim.Pattern, flips []FlipPhase, decided map[sim.PID]sim.Value, log *sim.AccessLog, stable sim.Set) *Run {
	return &Run{
		Pattern:      pattern,
		Oracle:       OracleChoice{Stable: sim.SetOf(0), Flips: flips},
		Report:       &sim.Report{Decided: decided, Accesses: log},
		StableOutput: stable,
	}
}

// TestClassifySignatures drives every classifier branch on synthetic witness
// runs, pinning the precedence order of the library.
func TestClassifySignatures(t *testing.T) {
	ff2 := sim.FailFree(2)
	crash := sim.CrashPattern(2, map[sim.PID]sim.Time{1: 5})
	flip := []FlipPhase{{Until: 10, Out: sim.SetOf(1)}}
	decided := map[sim.PID]sim.Value{0: 100}

	// A round gap in one process's round-indexed accesses (D[1] then D[3]).
	skipLog := func() *sim.AccessLog {
		return syntheticLog([]syntheticAccess{
			{0, testKeyDr.WithRound(1), sim.AccessRead},
			{1, testKeyDr.WithRound(1), sim.AccessRead},
			{1, testKeyDr.WithRound(2), sim.AccessRead},
			{0, testKeyDr.WithRound(3), sim.AccessRead},
		})
	}
	// The decider p1's last read of a converge register precedes p0's write.
	convRace := syntheticLog([]syntheticAccess{
		{1, testKeyConvCell, sim.AccessRead},
		{0, testKeyConvCell, sim.AccessWrite},
	})
	// Same race on a fig2 snapshot entry.
	snapCell := testKeyGlad.WithRound(1).WithSub(1, 2).WithCell(0)
	snapRace := syntheticLog([]syntheticAccess{
		{1, snapCell, sim.AccessRead},
		{0, snapCell, sim.AccessWrite},
	})

	cases := []struct {
		name     string
		run      *Run
		property string
		want     string
	}{
		{"validity", classifyRun(ff2, nil, decided, nil, 0), "validity", "unproposed-decision"},
		{"termination with crash", classifyRun(crash, nil, nil, nil, 0), "termination-of-correct", "crash-stalled-wait"},
		{"termination failure-free", classifyRun(ff2, nil, nil, nil, 0), "termination-of-correct", "commit-starvation"},
		{"empty output", classifyRun(ff2, nil, nil, nil, sim.EmptySet), "upsilon-sanity", "empty-detector-output"},
		{"correct-set output with flip", classifyRun(ff2, flip, nil, nil, ff2.Correct()), "upsilon-sanity", "stale-leader-latch"},
		{"correct-set output stable-from-0", classifyRun(ff2, nil, nil, nil, ff2.Correct()), "upsilon-sanity", "correct-set-output"},
		{"range-breaking output", classifyRun(crash, nil, nil, nil, sim.SetOf(1)), "upsilon-sanity", "undersized-output"},
		{"round skip with flip", classifyRun(ff2, flip, decided, skipLog(), 0), "agreement", "adopt-skipped-after-flip"},
		{"round skip without flip", classifyRun(ff2, nil, decided, skipLog(), 0), "agreement", "adopt-skipped-on-change"},
		{"snapshot race", classifyRun(ff2, nil, map[sim.PID]sim.Value{1: 101}, snapRace, 0), "agreement", "stale-snapshot-decide"},
		{"converge race", classifyRun(ff2, nil, map[sim.PID]sim.Value{1: 101}, convRace, 0), "agreement", "wrong-adopt-order"},
		{"flip-gated", classifyRun(ff2, flip, decided, nil, 0), "agreement", "flip-gated-divergence"},
		{"fallback", classifyRun(ff2, nil, decided, nil, 0), "agreement", "unclassified"},
		{"unknown property", classifyRun(ff2, nil, decided, nil, 0), "no-such-property", "unclassified"},
	}
	for _, c := range cases {
		if got := Classify(c.run, c.property); got.Name != c.want {
			t.Errorf("%s: classified %q, want %q", c.name, got.Name, c.want)
		}
	}
}

// TestRoundIndexedObj pins which access-log objects carry a protocol round
// index: the classifier reads the key's kind and round, never the rendered
// name.
func TestRoundIndexedObj(t *testing.T) {
	cases := []struct {
		key   sim.ObjKey
		round int
		ok    bool
	}{
		{testKeyDr.WithRound(1), 1, true},
		{testKeyDr.WithRound(12), 12, true},
		{testKeyStable.WithRound(3), 3, true},
		{testKeyGlad.WithRound(2).WithSub(1, 2).WithCell(0), 2, true},
		{testKeyNConv.WithRound(4).WithSub(1, 2).WithPart(0).WithCell(1), 4, true},
		{testKeyGConv.WithRound(7).WithSub(2, 1).WithPart(1).WithCell(0), 7, true},
		{testKeyFConv.WithRound(5).WithSub(0, 1).WithPart(0).WithCell(2), 5, true},
		{testKeyD, 0, false},                             // the decision register has no round
		{testKeyReports.WithCell(1), 0, false},           // extraction registers are not rounds
		{testKeyHistory, 0, false},                       // detector histories are not rounds
		{testKeyChanged.WithRound(2), 0, false},          // extraction state: a plain object
		{testKeyNConv.WithPart(0).WithCell(0), 0, false}, // a converge instance outside any series
	}
	for _, c := range cases {
		r, ok := roundIndexedObj(c.key)
		if ok != c.ok || (ok && r != c.round) {
			t.Errorf("roundIndexedObj(%s) = (%d,%v), want (%d,%v)", c.key, r, ok, c.round, c.ok)
		}
	}
}

// TestRoundSkipperContiguous asserts the skipper detector stays quiet on
// contiguous round traces and on processes with a single round.
func TestRoundSkipperContiguous(t *testing.T) {
	log := syntheticLog([]syntheticAccess{
		{0, testKeyDr.WithRound(1), sim.AccessRead},
		{0, testKeyDr.WithRound(2), sim.AccessRead},
		{0, testKeyDr.WithRound(3), sim.AccessRead},
		{1, testKeyDr.WithRound(5), sim.AccessRead},
	})
	run := classifyRun(sim.FailFree(2), nil, nil, log, 0)
	if p := roundSkipper(run); p != -1 {
		t.Fatalf("roundSkipper flagged %v on a contiguous trace", p)
	}
	if p := roundSkipper(classifyRun(sim.FailFree(2), nil, nil, nil, 0)); p != -1 {
		t.Fatalf("roundSkipper flagged %v with no access log", p)
	}
}

// TestDeciderMissedWriteDirection asserts the race detector requires the
// write to land strictly after the decider's last read, by a different
// process, and only counts deciding processes.
func TestDeciderMissedWriteDirection(t *testing.T) {
	obj := testKeyConvCell
	decided := map[sim.PID]sim.Value{1: 101}
	// Write before the last read: no race.
	before := syntheticLog([]syntheticAccess{
		{0, obj, sim.AccessWrite},
		{1, obj, sim.AccessRead},
	})
	if deciderMissedWrite(classifyRun(sim.FailFree(2), nil, decided, before, 0), isConvergeObj) {
		t.Error("write preceding the last read counted as a missed write")
	}
	// Same-process write after own read: no race.
	own := syntheticLog([]syntheticAccess{
		{1, obj, sim.AccessRead},
		{1, obj, sim.AccessWrite},
	})
	if deciderMissedWrite(classifyRun(sim.FailFree(2), nil, decided, own, 0), isConvergeObj) {
		t.Error("a process's own later write counted as a missed write")
	}
	// Racing reader never decided: no race.
	race := syntheticLog([]syntheticAccess{
		{1, obj, sim.AccessRead},
		{0, obj, sim.AccessWrite},
	})
	if deciderMissedWrite(classifyRun(sim.FailFree(2), nil, map[sim.PID]sim.Value{0: 100}, race, 0), isConvergeObj) {
		t.Error("a non-deciding reader counted as a missed-write victim")
	}
	if !deciderMissedWrite(classifyRun(sim.FailFree(2), nil, decided, race, 0), isConvergeObj) {
		t.Error("the genuine missed write went undetected")
	}
}
