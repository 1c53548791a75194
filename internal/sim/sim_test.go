package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSetBasics(t *testing.T) {
	tests := []struct {
		name string
		s    Set
		want []PID
	}{
		{"empty", EmptySet, nil},
		{"single", SetOf(3), []PID{3}},
		{"multi", SetOf(0, 2, 5), []PID{0, 2, 5}},
		{"dup", SetOf(1, 1, 1), []PID{1}},
		{"full4", FullSet(4), []PID{0, 1, 2, 3}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := tt.s.Members()
			if len(got) != len(tt.want) {
				t.Fatalf("Members() = %v, want %v", got, tt.want)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Fatalf("Members() = %v, want %v", got, tt.want)
				}
			}
			if tt.s.Len() != len(tt.want) {
				t.Errorf("Len() = %d, want %d", tt.s.Len(), len(tt.want))
			}
		})
	}
}

func TestSetAlgebra(t *testing.T) {
	a := SetOf(0, 1, 2)
	b := SetOf(2, 3)
	if got := a.Union(b); got != SetOf(0, 1, 2, 3) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Intersect(b); got != SetOf(2) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Minus(b); got != SetOf(0, 1) {
		t.Errorf("Minus = %v", got)
	}
	if !SetOf(1).SubsetOf(a) || b.SubsetOf(a) {
		t.Errorf("SubsetOf wrong")
	}
	if got := a.Complement(5); got != SetOf(3, 4) {
		t.Errorf("Complement = %v", got)
	}
	if a.Min() != 0 || b.Min() != 2 {
		t.Errorf("Min wrong")
	}
	if got := a.Remove(1); got != SetOf(0, 2) {
		t.Errorf("Remove = %v", got)
	}
	if a.Has(3) || !a.Has(1) {
		t.Errorf("Has wrong")
	}
}

func TestSetString(t *testing.T) {
	if got := SetOf(0, 2).String(); got != "{p1,p3}" {
		t.Errorf("String = %q", got)
	}
	if got := EmptySet.String(); got != "{}" {
		t.Errorf("String = %q", got)
	}
}

func TestSetProperties(t *testing.T) {
	// Property: complement of complement is identity within FullSet(n).
	f := func(raw uint64) bool {
		n := 8
		s := Set(raw) & FullSet(n)
		return s.Complement(n).Complement(n) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Property: |A ∪ B| + |A ∩ B| = |A| + |B|.
	g := func(ra, rb uint64) bool {
		a, b := Set(ra)&FullSet(16), Set(rb)&FullSet(16)
		return a.Union(b).Len()+a.Intersect(b).Len() == a.Len()+b.Len()
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
	// Property: Minus is intersection with complement.
	h := func(ra, rb uint64) bool {
		a, b := Set(ra)&FullSet(16), Set(rb)&FullSet(16)
		return a.Minus(b) == a.Intersect(b.Complement(16))
	}
	if err := quick.Check(h, nil); err != nil {
		t.Error(err)
	}
}

func TestPIDString(t *testing.T) {
	if got := PID(0).String(); got != "p1" {
		t.Errorf("PID(0) = %q, want p1 (the paper's 1-based names)", got)
	}
}

func TestPatternBasics(t *testing.T) {
	p := FailFree(4)
	if p.N() != 4 || !p.Faulty().IsEmpty() || p.Correct() != FullSet(4) {
		t.Fatalf("FailFree wrong: %+v", p)
	}
	if p.NumFaulty() != 0 || !p.InEnvironment(0) {
		t.Errorf("fail-free environment wrong")
	}

	q := CrashPattern(4, map[PID]Time{1: 100, 3: 5})
	if q.Faulty() != SetOf(1, 3) {
		t.Errorf("Faulty = %v", q.Faulty())
	}
	if q.Correct() != SetOf(0, 2) {
		t.Errorf("Correct = %v", q.Correct())
	}
	if !q.CrashedBy(3, 5) || q.CrashedBy(3, 4) || q.CrashedBy(0, 1<<40) {
		t.Errorf("CrashedBy wrong")
	}
	if q.InEnvironment(1) || !q.InEnvironment(2) || !q.InEnvironment(3) {
		t.Errorf("InEnvironment wrong")
	}
}

func TestPatternAllCrashPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for no-correct-process pattern")
		}
	}()
	CrashPattern(2, map[PID]Time{0: 1, 1: 1})
}

func TestPatternNoCrashEntryIgnored(t *testing.T) {
	p := CrashPattern(3, map[PID]Time{0: NoCrash})
	if !p.Faulty().IsEmpty() {
		t.Errorf("NoCrash entry should leave the process correct")
	}
}

// counts returns machines where machine i decides Value(i) after exactly
// ks[i] steps.
func counts(ks ...int) []StepMachine {
	out := make([]StepMachine, len(ks))
	for i, k := range ks {
		out[i] = &countdownMachine{steps: k, val: Value(i), decides: true}
	}
	return out
}

// recording wraps s and appends every granted process to *order: the
// runner consults its schedule exactly once per step.
func recording(s Schedule, order *[]PID) Schedule {
	return Func(func(t Time, enabled Set) PID {
		p := s.Next(t, enabled)
		*order = append(*order, p)
		return p
	})
}

func TestRunAllDecide(t *testing.T) {
	pattern := FailFree(3)
	rep, err := RunMachines(Config{Pattern: pattern, Schedule: RoundRobin()}, counts(5, 3, 7))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 15 {
		t.Errorf("Steps = %d, want 15", rep.Steps)
	}
	for i := 0; i < 3; i++ {
		if rep.Decided[PID(i)] != Value(i) {
			t.Errorf("Decided[%d] = %v", i, rep.Decided[PID(i)])
		}
		want := int64([]int{5, 3, 7}[i])
		if rep.StepsBy[i] != want {
			t.Errorf("StepsBy[%d] = %d, want %d", i, rep.StepsBy[i], want)
		}
	}
	if len(rep.DecidedValues()) != 3 {
		t.Errorf("DecidedValues = %v", rep.DecidedValues())
	}
}

// accMachine adds its PID+1 to a shared counter in each of 50 steps and
// decides the last total it saw.
type accMachine struct {
	shared *int64
	me     PID
	k      int
	acc    Value
}

func (m *accMachine) Init(ctx MachineContext) { m.me = ctx.ID }
func (m *accMachine) Decision() Value         { return m.acc }
func (m *accMachine) Step(Time) MachineStatus {
	*m.shared += int64(m.me) + 1
	m.acc = Value(*m.shared)
	if m.k++; m.k < 50 {
		return MachineRunning
	}
	return MachineDecided
}

func TestRunDeterminism(t *testing.T) {
	run := func() map[PID]Value {
		shared := new(int64)
		machines := make([]StepMachine, 4)
		for i := range machines {
			machines[i] = &accMachine{shared: shared}
		}
		rep, err := RunMachines(Config{Pattern: FailFree(4), Schedule: NewRandom(42)}, machines)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Decided
	}
	a, b := run(), run()
	for p, v := range a {
		if b[p] != v {
			t.Fatalf("non-deterministic: %v: %v vs %v", p, v, b[p])
		}
	}
}

func TestRunCrash(t *testing.T) {
	// p1 crashes at time 4: it takes at most 3 steps under round-robin.
	pattern := CrashPattern(2, map[PID]Time{1: 4})
	rep, err := RunMachines(Config{Pattern: pattern, Schedule: RoundRobin()}, counts(10, 1000))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Crashed.Has(1) {
		t.Errorf("p2 should have crashed")
	}
	if _, ok := rep.Decided[1]; ok {
		t.Errorf("crashed process decided")
	}
	if rep.Decided[0] != 0 {
		t.Errorf("p1 should decide")
	}
	if rep.StepsBy[1] > 3 {
		t.Errorf("crashed process took %d steps, crash time 4 allows ≤ 3", rep.StepsBy[1])
	}
}

func TestRunCrashAtZeroTakesNoSteps(t *testing.T) {
	pattern := CrashPattern(2, map[PID]Time{1: 0})
	rep, err := RunMachines(Config{Pattern: pattern, Schedule: RoundRobin()}, counts(2, 100))
	if err != nil {
		t.Fatal(err)
	}
	if rep.StepsBy[1] != 0 {
		t.Errorf("process crashed at 0 took %d steps", rep.StepsBy[1])
	}
}

func TestRunBudgetExhaustion(t *testing.T) {
	rep, err := RunMachines(Config{Pattern: FailFree(2), Schedule: RoundRobin(), Budget: 100},
		[]StepMachine{spinMachine{}, spinMachine{}})
	if err == nil {
		t.Fatal("expected budget exhaustion error")
	}
	if !rep.BudgetExhausted {
		t.Errorf("BudgetExhausted not set")
	}
	if rep.Steps != 100 {
		t.Errorf("Steps = %d, want 100", rep.Steps)
	}
}

func TestRunHaltWithoutDeciding(t *testing.T) {
	rep, err := RunMachines(Config{Pattern: FailFree(2), Schedule: RoundRobin()},
		[]StepMachine{&countdownMachine{steps: 1, decides: false}, counts(1, 1)[1]})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Halted.Has(0) {
		t.Errorf("p1 should be halted")
	}
	if _, ok := rep.Decided[0]; ok {
		t.Errorf("halted process should not appear in Decided")
	}
}

func TestRunStopWhen(t *testing.T) {
	rep, err := RunMachines(Config{
		Pattern:  FailFree(2),
		Schedule: RoundRobin(),
		StopWhen: func(t Time) bool { return t >= 10 },
	}, []StepMachine{spinMachine{}, spinMachine{}})
	if err == nil {
		t.Fatal("stopped run with live correct processes should report an error")
	}
	if !rep.Stopped {
		t.Errorf("Stopped not set")
	}
	if rep.BudgetExhausted {
		t.Errorf("BudgetExhausted should not be set for StopWhen")
	}
	if rep.Steps != 10 {
		t.Errorf("Steps = %d, want 10", rep.Steps)
	}
}

// panicMachine panics on its second step.
type panicMachine struct{ steps int }

func (m *panicMachine) Init(MachineContext) {}
func (m *panicMachine) Decision() Value     { return 0 }
func (m *panicMachine) Step(Time) MachineStatus {
	if m.steps++; m.steps == 2 {
		panic("kaboom")
	}
	return MachineRunning
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("machine panic should propagate out of RunMachines")
		}
	}()
	_, _ = RunMachines(Config{Pattern: FailFree(1), Schedule: RoundRobin()}, []StepMachine{&panicMachine{}})
}

func TestRoundRobinFairness(t *testing.T) {
	rep, err := RunMachines(Config{Pattern: FailFree(3), Schedule: RoundRobin(), Budget: 99},
		counts(1000, 1000, 1000))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	for i := 0; i < 3; i++ {
		if rep.StepsBy[i] != 33 {
			t.Errorf("StepsBy[%d] = %d, want 33", i, rep.StepsBy[i])
		}
	}
}

func TestRandomScheduleFairness(t *testing.T) {
	rep, err := RunMachines(Config{Pattern: FailFree(4), Schedule: NewRandom(7), Budget: 4000},
		counts(1<<30, 1<<30, 1<<30, 1<<30))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	for i := 0; i < 4; i++ {
		if rep.StepsBy[i] < 800 || rep.StepsBy[i] > 1200 {
			t.Errorf("StepsBy[%d] = %d, not near 1000", i, rep.StepsBy[i])
		}
	}
}

func TestPrioritySchedule(t *testing.T) {
	// p3 runs alone until it returns; then p1; then p2.
	rep, err := RunMachines(Config{Pattern: FailFree(3), Schedule: Priority(2, 0, 1)}, counts(5, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if rep.DecidedAt[2] >= rep.DecidedAt[0] || rep.DecidedAt[0] >= rep.DecidedAt[1] {
		t.Errorf("priority order violated: %v", rep.DecidedAt)
	}
}

func TestPriorityDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Priority(1, 1)
}

func TestScriptSoloAndEachOnce(t *testing.T) {
	var order []PID
	sched := NewScript(RoundRobin(),
		Solo(2, 3),
		EachOnce(),
		Solo(0, 2),
	)
	_, err := RunMachines(Config{
		Pattern:  FailFree(3),
		Schedule: recording(sched, &order),
		Budget:   8,
	}, counts(100, 100, 100))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	want := []PID{2, 2, 2, 0, 1, 2, 0, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestScriptAppendMidRun(t *testing.T) {
	sched := NewScript(RoundRobin(), Solo(1, 2))
	appended := false
	var order []PID
	_, err := RunMachines(Config{
		Pattern:  FailFree(2),
		Schedule: recording(sched, &order),
		Budget:   6,
		StopWhen: func(t Time) bool {
			if t == 2 && !appended {
				appended = true
				sched.Append(Solo(0, 3))
			}
			return false
		},
	}, counts(100, 100))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	want := []PID{1, 1, 0, 0, 0, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestAlternateSchedule(t *testing.T) {
	var order []PID
	_, err := RunMachines(Config{
		Pattern:  FailFree(2),
		Schedule: recording(Alternate(Priority(0), Priority(1)), &order),
		Budget:   6,
	}, counts(100, 100))
	if err == nil {
		t.Fatal("expected exhaustion")
	}
	// Times start at 1 (odd): priority(1) first.
	want := []PID{1, 0, 1, 0, 1, 0}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Errorf("order = %v, want %v", order, want)
	}
}

func TestFullSetBounds(t *testing.T) {
	if FullSet(0) != EmptySet {
		t.Errorf("FullSet(0) = %v", FullSet(0))
	}
	if FullSet(MaxProcs).Len() != MaxProcs {
		t.Errorf("FullSet(64) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for FullSet(65)")
		}
	}()
	FullSet(MaxProcs + 1)
}

func TestQueryIsAStep(t *testing.T) {
	oracle := constOracle{v: 42}
	log := NewAccessLog()
	seam := NewQuerySeam(log)
	seam.Register("H", oracle)
	rep, err := RunMachines(Config{Pattern: FailFree(1), Schedule: RoundRobin(), AccessLog: log, Queries: seam},
		[]StepMachine{&queryMachine{h: oracle, queryOn: map[int]bool{1: true}, steps: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Steps != 1 {
		t.Errorf("query cost %d steps, want 1", rep.Steps)
	}
	if _, accs := log.Step(0); log.AccessString(accs) != "R(H)" {
		t.Errorf("query step recorded %s, want R(H)", log.AccessString(accs))
	}
	if rep.Decided[0] != 42 {
		t.Errorf("query value lost")
	}
}

type constOracle struct{ v int }

func (c constOracle) Value(PID, Time) any { return c.v }

// timesMachine records the time of each of its 3 steps.
type timesMachine struct{ times []Time }

func (m *timesMachine) Init(MachineContext) {}
func (m *timesMachine) Decision() Value     { return 0 }
func (m *timesMachine) Step(t Time) MachineStatus {
	if m.times = append(m.times, t); len(m.times) < 3 {
		return MachineRunning
	}
	return MachineDecided
}

// TestProcTimeAdvances: a process's k-th step of a solo run happens at
// time k.
func TestProcTimeAdvances(t *testing.T) {
	m := &timesMachine{}
	if _, err := RunMachines(Config{Pattern: FailFree(1), Schedule: RoundRobin()}, []StepMachine{m}); err != nil {
		t.Fatal(err)
	}
	for i, ts := range m.times {
		if ts != Time(i+1) {
			t.Errorf("time %d after step %d", ts, i+1)
		}
	}
}

// TestRoundRobinMatchesModularRotation pins RoundRobin's grant sequence to
// its definition: starting after the last grant, try PIDs in cyclic order
// modulo MaxProcs and grant the first enabled one. Enabled sets are drawn
// at random, with PID 63 and empty-above-last cases included, and change
// between grants.
func TestRoundRobinMatchesModularRotation(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := RoundRobin()
	last := PID(-1)
	for step := 0; step < 5000; step++ {
		enabled := Set(rng.Uint64() & rng.Uint64() & rng.Uint64())
		if step%7 == 0 {
			enabled |= SetOf(63)
		}
		if enabled == 0 {
			enabled = SetOf(PID(rng.Intn(MaxProcs)))
		}
		want := PID(-1)
		for i := 1; i <= MaxProcs; i++ {
			if p := PID((int(last) + i) % MaxProcs); enabled.Has(p) {
				want = p
				break
			}
		}
		if got := s.Next(Time(step+1), enabled); got != want {
			t.Fatalf("step %d: RoundRobin granted %v from %v after %v, want %v", step, got, enabled, last, want)
		}
		last = want
	}
}
