package sim

import (
	"reflect"
	"testing"
)

func TestAccessLogStepsAndSpans(t *testing.T) {
	l := NewAccessLog()
	x, y := l.Intern(KeyOf("x")), l.Intern(KeyOf("y"))
	if x == y || x == 0 || y == 0 {
		t.Fatalf("bad interning: x=%d y=%d", x, y)
	}
	if l.Intern(KeyOf("x")) != x {
		t.Fatal("re-interning x changed its ID")
	}

	l.BeginStep()
	l.Record(x, AccessRead)
	l.Record(y, AccessWrite)
	l.EndStep(2)
	l.BeginStep()
	l.EndStep(0) // a step with no shared access (detector query, yield)
	l.BeginStep()
	l.Record(x, AccessWrite)
	l.EndStep(1)

	if l.Steps() != 3 {
		t.Fatalf("Steps = %d, want 3", l.Steps())
	}
	p, accs := l.Step(0)
	if p != 2 || !reflect.DeepEqual(accs, []Access{{x, AccessRead}, {y, AccessWrite}}) {
		t.Fatalf("step 0 = %v %v", p, accs)
	}
	if _, accs := l.Step(1); len(accs) != 0 {
		t.Fatalf("empty step recorded %v", accs)
	}
	if got := l.AccessString(accs[:0]); got != "-" {
		t.Fatalf("empty AccessString = %q", got)
	}
	_, a0 := l.Step(0)
	if got := l.AccessString(a0); got != "R(x) W(y)" {
		t.Fatalf("AccessString = %q", got)
	}

	// Reset keeps the intern table (ID stability across runs of one log).
	l.Reset()
	if l.Steps() != 0 {
		t.Fatal("Reset kept steps")
	}
	if l.Intern(KeyOf("y")) != y {
		t.Fatal("Reset dropped the intern table")
	}
	if l.ObjName(y) != "y" || l.ObjName(0) != "?" {
		t.Fatalf("ObjName: %q %q", l.ObjName(y), l.ObjName(0))
	}
}

func TestAccessLogNilSafe(t *testing.T) {
	var l *AccessLog
	l.BeginStep()
	l.Record(1, AccessWrite)
	l.EndStep(0)
	l.Reset()
	if l.Steps() != 0 {
		t.Fatal("nil log has steps")
	}
	if l.ObjName(1) != "?" {
		t.Fatal("nil ObjName")
	}
}

func TestAccessesConflict(t *testing.T) {
	r1 := []Access{{1, AccessRead}}
	r1b := []Access{{1, AccessRead}}
	w1 := []Access{{1, AccessWrite}}
	w2 := []Access{{2, AccessWrite}}
	scan := []Access{{1, AccessRead}, {2, AccessRead}}
	cases := []struct {
		a, b []Access
		want bool
	}{
		{r1, r1b, false},   // read-read never conflicts
		{r1, w1, true},     // read-write on the same object
		{w1, w1, true},     // write-write on the same object
		{w1, w2, false},    // writes to different objects
		{scan, w2, true},   // scan covers object 2
		{scan, nil, false}, // empty set conflicts with nothing
	}
	for i, c := range cases {
		if got := AccessesConflict(c.a, c.b); got != c.want {
			t.Errorf("case %d: AccessesConflict(%v, %v) = %v", i, c.a, c.b, got)
		}
		if got := AccessesConflict(c.b, c.a); got != c.want {
			t.Errorf("case %d (sym): = %v", i, got)
		}
	}
}

// TestRunMachinesRecordsSpans: the runner brackets every machine step, so
// span count equals Report.Steps and span owners match the granted PIDs.
func TestRunMachinesRecordsSpans(t *testing.T) {
	log := NewAccessLog()
	rep, err := RunMachines(Config{
		Pattern:   FailFree(2),
		Schedule:  RoundRobin(),
		AccessLog: log,
	}, []StepMachine{
		&countdownMachine{steps: 3, val: 1, decides: true},
		&countdownMachine{steps: 5, val: 2, decides: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Accesses != log {
		t.Fatal("Report.Accesses is not the configured log")
	}
	if int64(log.Steps()) != rep.Steps {
		t.Fatalf("log has %d steps, report %d", log.Steps(), rep.Steps)
	}
	var byPID [2]int64
	for i := 0; i < log.Steps(); i++ {
		p, _ := log.Step(i)
		byPID[p]++
	}
	if byPID[0] != rep.StepsBy[0] || byPID[1] != rep.StepsBy[1] {
		t.Fatalf("span owners %v, StepsBy %v", byPID, rep.StepsBy)
	}
}

// TestObjKeyNames pins how keys render: the display names of every object
// family the protocols build, byte for byte, and which keys carry a round.
func TestObjKeyNames(t *testing.T) {
	conv := NameOf("nconv").Key(ObjConverge)
	cases := []struct {
		key   ObjKey
		name  string
		round int
		ok    bool
	}{
		{KeyOf("D"), "D", 0, false},
		{NameOf("D").Key(ObjRound).WithRound(3), "D[3]", 3, true},
		{KeyOf("R").WithCell(2), "R[2]", 0, false},
		{KeyOf("Exited").WithRound(2).WithCell(1), "Exited[2][1]", 2, true},
		{conv.WithRound(1).WithSub(0, 2).WithPart(0).WithCell(0), "nconv[1][0]/2.A[0]", 1, true},
		{conv.WithPart(1).WithCell(4), "nconv.B[4]", 0, false},
		{NameOf("A").Key(ObjGladiator).WithRound(12).WithSub(1, 3).WithCell(2), "A[12][1]/3[2]", 12, true},
		{KeyOf("Cons").WithRound(3).WithSet(SetOf(0, 2)), "Cons[3]{p1,p3}", 3, true},
		{KeyOf("Cons").WithRound(1).WithSet(SetOf(63)), "Cons[1]{p64}", 1, true},
		{KeyOf("H(Ω)"), "H(Ω)", 0, false},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.name {
			t.Errorf("key renders %q, want %q", got, c.name)
		}
		if r, ok := c.key.Round(); ok != c.ok || r != c.round {
			t.Errorf("%s: Round() = (%d,%v), want (%d,%v)", c.name, r, ok, c.round, c.ok)
		}
	}
	if NameOf("nconv") != NameOf("nconv") || NameOf("nconv") == NameOf("gconv") {
		t.Error("NameOf is not a bijection on base names")
	}
	if KeyOf("D").WithRound(3) == NameOf("D").Key(ObjRound).WithRound(3) {
		t.Error("keys of different kinds compare equal")
	}
}
