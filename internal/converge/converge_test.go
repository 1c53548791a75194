package converge

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

func impls() []Impl { return []Impl{UseAtomic, UseAfek} }

// keyC identifies the stand-alone instances the tests build.
var keyC = sim.NameOf("c").Key(sim.ObjConverge)

// convMachine performs one Converge(inst, in) call and decides the picked
// value, reporting the outcome to done.
type convMachine struct {
	inst    *Instance
	in      sim.Value
	done    func(me sim.PID, picked sim.Value, committed bool)
	me      sim.PID
	conv    Machine
	started bool
}

func (m *convMachine) Init(ctx sim.MachineContext) { m.me = ctx.ID; m.conv.Bind(ctx) }

func (m *convMachine) Step(sim.Time) sim.MachineStatus {
	finished := false
	if !m.started {
		m.started = true
		finished = m.conv.Start(m.inst, m.in) // a 0-converge takes no access
	}
	if !finished && !m.conv.StepOp() {
		return sim.MachineRunning
	}
	if m.done != nil {
		m.done(m.me, m.conv.Picked, m.conv.Committed)
	}
	return sim.MachineDecided
}

func (m *convMachine) Decision() sim.Value { return m.conv.Picked }

// spinMachine never returns; each step is a no-op.
type spinMachine struct{}

func (spinMachine) Init(sim.MachineContext)         {}
func (spinMachine) Step(sim.Time) sim.MachineStatus { return sim.MachineRunning }
func (spinMachine) Decision() sim.Value             { return 0 }

// converge runs n processes through inst with the given inputs, schedule
// and pattern, returning the run's report, picks and commits.
func converge(inst *Instance, inputs []sim.Value, sched sim.Schedule, pattern sim.Pattern) (rep *sim.Report, picks map[sim.PID]sim.Value, commits map[sim.PID]bool, err error) {
	picks = make(map[sim.PID]sim.Value)
	commits = make(map[sim.PID]bool)
	machines := make([]sim.StepMachine, len(inputs))
	for i := range machines {
		machines[i] = &convMachine{inst: inst, in: inputs[i], done: func(me sim.PID, v sim.Value, c bool) {
			picks[me] = v
			commits[me] = c
		}}
	}
	rep, err = sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sched, Budget: 1 << 18}, machines)
	return rep, picks, commits, err
}

// runConverge drives n processes through a single k-converge instance with
// the given inputs, schedule and pattern, returning picks and commits.
func runConverge(t *testing.T, n, k int, impl Impl, inputs []sim.Value, sched sim.Schedule, pattern sim.Pattern) (picks map[sim.PID]sim.Value, commits map[sim.PID]bool) {
	t.Helper()
	_, picks, commits, err := converge(NewInstance(keyC, n, k, impl), inputs, sched, pattern)
	if err != nil {
		t.Fatalf("converge run: %v", err)
	}
	return picks, commits
}

func TestZeroConverge(t *testing.T) {
	inst := NewInstance(keyC, 2, 0, UseAtomic)
	log := sim.NewAccessLog()
	check := func(_ sim.PID, v sim.Value, c bool) {
		if v != 41 || c {
			t.Errorf("0-converge = (%v, %v), want (41, false)", v, c)
		}
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(2), Schedule: sim.RoundRobin(), AccessLog: log},
		[]sim.StepMachine{&convMachine{inst: inst, in: 41, done: check}, &convMachine{inst: inst, in: 41, done: check}})
	if err != nil {
		t.Fatal(err)
	}
	// Each process decides in its first step; 0-converge itself takes no
	// step, so those steps touch no shared object.
	if rep.Steps != 2 {
		t.Errorf("0-converge deciders took %d steps, want 2", rep.Steps)
	}
	for i := 0; i < log.Steps(); i++ {
		if _, accs := log.Step(i); len(accs) != 0 {
			t.Errorf("0-converge accessed shared memory: %s", log.AccessString(accs))
		}
	}
}

func TestConvergenceProperty(t *testing.T) {
	// If at most k distinct values are input, every process commits.
	for _, impl := range impls() {
		for _, tc := range []struct {
			n, k     int
			inputs   []sim.Value
			distinct int
		}{
			{3, 1, []sim.Value{7, 7, 7}, 1},
			{3, 2, []sim.Value{7, 8, 7}, 2},
			{4, 3, []sim.Value{1, 2, 3, 1}, 3},
			{5, 4, []sim.Value{1, 2, 3, 4, 4}, 4},
		} {
			name := fmt.Sprintf("%v/n%d-k%d", impl, tc.n, tc.k)
			t.Run(name, func(t *testing.T) {
				for seed := int64(0); seed < 10; seed++ {
					picks, commits := runConverge(t, tc.n, tc.k, impl, tc.inputs,
						sim.NewRandom(seed), sim.FailFree(tc.n))
					for p, c := range commits {
						if !c {
							t.Fatalf("seed %d: %v did not commit with %d ≤ k=%d values",
								seed, p, tc.distinct, tc.k)
						}
					}
					assertAgreement(t, picks, commits, tc.k, tc.inputs)
				}
			})
		}
	}
}

func TestCAgreementProperty(t *testing.T) {
	// Even with more than k distinct inputs, if anyone commits, at most k
	// values are picked in total — across many random schedules.
	for _, impl := range impls() {
		t.Run(impl.String(), func(t *testing.T) {
			n := 5
			inputs := []sim.Value{10, 20, 30, 40, 50}
			for k := 1; k < n; k++ {
				for seed := int64(0); seed < 25; seed++ {
					picks, commits := runConverge(t, n, k, impl, inputs,
						sim.NewRandom(seed+int64(k)*1000), sim.FailFree(n))
					assertAgreement(t, picks, commits, k, inputs)
				}
			}
		})
	}
}

func TestCValidityUnderCrash(t *testing.T) {
	for _, impl := range impls() {
		t.Run(impl.String(), func(t *testing.T) {
			n := 4
			inputs := []sim.Value{1, 2, 3, 4}
			pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{0: 3, 2: 9})
			for seed := int64(0); seed < 15; seed++ {
				picks, commits := runConverge(t, n, 2, impl, inputs,
					sim.NewRandom(seed), pattern)
				assertAgreement(t, picks, commits, 2, inputs)
				for _, p := range pattern.Correct().Members() {
					if _, ok := picks[p]; !ok {
						t.Fatalf("C-Termination: %v did not pick (seed %d)", p, seed)
					}
				}
			}
		})
	}
}

func TestNoCommitUnderLockstep(t *testing.T) {
	// Round-robin lockstep with n distinct values: every scan sees all n
	// values, so nobody may commit for k < n.
	n := 4
	inputs := []sim.Value{1, 2, 3, 4}
	picks, commits := runConverge(t, n, n-1, UseAtomic, inputs,
		sim.RoundRobin(), sim.FailFree(n))
	for p, c := range commits {
		if c {
			t.Errorf("%v committed under lockstep with n distinct values", p)
		}
	}
	assertAgreement(t, picks, commits, n-1, inputs)
}

func TestSoloCommits(t *testing.T) {
	// A process running alone sees only its own value: it must commit for
	// any k ≥ 1 (Convergence with 1 input).
	for _, impl := range impls() {
		t.Run(impl.String(), func(t *testing.T) {
			n := 3
			inst := NewInstance(keyC, n, 1, impl)
			var committed bool
			solo := &convMachine{inst: inst, in: 5, done: func(_ sim.PID, _ sim.Value, c bool) { committed = c }}
			pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 1, 2: 1})
			if _, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.Priority(0)},
				[]sim.StepMachine{solo, spinMachine{}, spinMachine{}}); err != nil {
				t.Fatal(err)
			}
			if !committed {
				t.Error("solo process did not commit")
			}
		})
	}
}

// assertAgreement checks C-Agreement and C-Validity on one outcome.
func assertAgreement(t *testing.T, picks map[sim.PID]sim.Value, commits map[sim.PID]bool, k int, inputs []sim.Value) {
	t.Helper()
	anyCommit := false
	for _, c := range commits {
		anyCommit = anyCommit || c
	}
	distinct := make(map[sim.Value]bool)
	for _, v := range picks {
		distinct[v] = true
	}
	if anyCommit && len(distinct) > k {
		t.Fatalf("C-Agreement: %d > k=%d values picked with a commit: %v", len(distinct), k, picks)
	}
	valid := make(map[sim.Value]bool, len(inputs))
	for _, v := range inputs {
		valid[v] = true
	}
	for p, v := range picks {
		if !valid[v] {
			t.Fatalf("C-Validity: %v picked unproposed %d", p, v)
		}
	}
}

// TestQuickConvergeProperties drives randomized configurations through the
// atomic implementation and checks all four properties.
func TestQuickConvergeProperties(t *testing.T) {
	prop := func(seed int64, kRaw, spread uint8) bool {
		n := 5
		k := int(kRaw)%(n-1) + 1
		// spread controls how many distinct inputs occur.
		numDistinct := int(spread)%n + 1
		inputs := make([]sim.Value, n)
		for i := range inputs {
			inputs[i] = sim.Value(i%numDistinct + 1)
		}
		_, picks, commits, err := converge(NewInstance(keyC, n, k, UseAtomic), inputs, sim.NewRandom(seed), sim.FailFree(n))
		if err != nil {
			return false
		}
		anyCommit := false
		for _, c := range commits {
			anyCommit = anyCommit || c
		}
		distinct := make(map[sim.Value]bool)
		for _, v := range picks {
			distinct[v] = true
		}
		if anyCommit && len(distinct) > k {
			return false
		}
		if numDistinct <= k {
			for _, c := range commits {
				if !c {
					return false
				}
			}
		}
		valid := make(map[sim.Value]bool)
		for _, v := range inputs {
			valid[v] = true
		}
		for _, v := range picks {
			if !valid[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestValueSet(t *testing.T) {
	vs := ValueSet{}
	vs = vs.add(5)
	vs = vs.add(2)
	vs = vs.add(9)
	vs = vs.add(5) // dup
	if len(vs) != 3 || vs[0] != 2 || vs[1] != 5 || vs[2] != 9 {
		t.Fatalf("ValueSet = %v", vs)
	}
	if vs.Min() != 2 {
		t.Errorf("Min = %v", vs.Min())
	}
}

// TestNewValueSetFromScan: a machine's value set holds the distinct present
// values of a scan, sorted.
func TestNewValueSetFromScan(t *testing.T) {
	scan := []memory.Opt[sim.Value]{
		memory.Some[sim.Value](3),
		memory.None[sim.Value](),
		memory.Some[sim.Value](1),
		memory.Some[sim.Value](3),
	}
	var m Machine
	vs := m.valueSet(scan)
	if len(vs) != 2 || vs[0] != 1 || vs[1] != 3 {
		t.Fatalf("valueSet = %v", vs)
	}
}

// TestNewValueSetAllocatesOnce: on a fresh machine, the distinct values of
// a scan go into one allocation, however many there are.
func TestNewValueSetAllocatesOnce(t *testing.T) {
	scan := []memory.Opt[sim.Value]{
		memory.Some[sim.Value](7),
		memory.Some[sim.Value](3),
		memory.None[sim.Value](),
		memory.Some[sim.Value](5),
		memory.Some[sim.Value](3),
	}
	var m Machine
	if vs := m.valueSet(scan); !slices.Equal(vs, ValueSet{3, 5, 7}) {
		t.Fatalf("valueSet = %v, want [3 5 7]", vs)
	}
	var vs ValueSet
	if allocs := testing.AllocsPerRun(100, func() {
		var fresh Machine
		vs = fresh.valueSet(scan)
	}); allocs != 1 {
		t.Errorf("a fresh machine's value set of 3 distinct values allocated %.1f objects into %v; want 1", allocs, vs)
	}
}

// TestValueSetReusesStorageAfterReset: the sets a machine publishes in one
// run are carved one after another from its storage and never written
// again, and after Reset the next run's sets are carved from that storage
// without allocating.
func TestValueSetReusesStorageAfterReset(t *testing.T) {
	some := func(vs ...sim.Value) []memory.Opt[sim.Value] {
		scan := []memory.Opt[sim.Value]{memory.None[sim.Value]()}
		for _, v := range vs {
			scan = append(scan, memory.Some(v))
		}
		return scan
	}
	var m Machine
	first := m.valueSet(some(7, 3, 5, 3))
	second := m.valueSet(some(2, 1))
	if !slices.Equal(first, ValueSet{3, 5, 7}) || !slices.Equal(second, ValueSet{1, 2}) {
		t.Fatalf("value sets = %v, %v; want [3 5 7], [1 2]", first, second)
	}
	if cap(first) != len(first) {
		t.Errorf("published set has capacity %d past its %d values; an append could write its neighbour", cap(first), len(first))
	}
	scan := some(9, 8)
	allocs := testing.AllocsPerRun(100, func() {
		m.Reset()
		// The second set outgrew the first storage, so the machine
		// carves from the storage it moved to.
		if vs := m.valueSet(scan); &vs[0] != &second[0] || !slices.Equal(vs, ValueSet{8, 9}) {
			t.Fatalf("set carved after Reset = %v at %p; want [8 9] at %p, where the last run's last set was", vs, &vs[0], &second[0])
		}
	})
	if allocs != 0 {
		t.Errorf("a reset machine's value set allocated %.1f objects; want 0", allocs)
	}
}

func TestValueSetMinEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ValueSet{}.Min()
}

func TestSeriesIdentity(t *testing.T) {
	s := NewSeries(sim.NameOf("x"), 3, UseAtomic)
	a := s.At(1, 2, 2)
	b := s.At(1, 2, 2)
	c := s.At(1, 2, 1)
	d := s.At(2, 2, 2)
	if a != b {
		t.Error("same indices should give the same instance")
	}
	if a == c || a == d {
		t.Error("different indices/params must give distinct instances")
	}
	if c.K() != 1 || a.K() != 2 {
		t.Error("K mismatch")
	}
}

func TestNegativeKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewInstance(keyC, 2, -1, UseAtomic)
}

func TestImplString(t *testing.T) {
	if UseAtomic.String() != "atomic-snapshot" || UseAfek.String() != "afek-snapshot" {
		t.Error("Impl strings wrong")
	}
}

func TestAfekCostHigherThanAtomic(t *testing.T) {
	// The registers-only implementation must cost strictly more steps.
	count := func(impl Impl) int64 {
		inst := NewInstance(keyC, 3, 1, impl)
		machines := []sim.StepMachine{&convMachine{inst: inst, in: 1}, &convMachine{inst: inst, in: 1}, &convMachine{inst: inst, in: 1}}
		rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(3), Schedule: sim.RoundRobin(), Budget: 1 << 18}, machines)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Steps
	}
	atomic, afek := count(UseAtomic), count(UseAfek)
	if afek <= atomic {
		t.Errorf("afek steps %d ≤ atomic steps %d", afek, atomic)
	}
}

// BenchmarkAblationConverge is E10c: k-converge cost vs k and
// implementation.
func BenchmarkAblationConverge(b *testing.B) {
	inputs := []sim.Value{0, 1, 2, 3, 4, 5}
	n := len(inputs)
	for _, impl := range impls() {
		for _, k := range []int{1, 3, 5} {
			b.Run(fmt.Sprintf("%v/k%d", impl, k), func(b *testing.B) {
				var steps int64
				for i := 0; i < b.N; i++ {
					rep, _, _, err := converge(NewInstance(keyC, n, k, impl), inputs, sim.NewRandom(int64(i)), sim.FailFree(n))
					if err != nil {
						b.Fatal(err)
					}
					steps += rep.Steps
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			})
		}
	}
}

// TestDigestedProposalUpdateAllocBound: a round-2 update records the
// fingerprint of the proposal it writes without boxing it, so a digested
// update allocates nothing, and the fingerprint the digest folds is the
// boxed one.
func TestDigestedProposalUpdateAllocBound(t *testing.T) {
	p := proposal{set: ValueSet{100, 102}, commit: true}
	digest := func(update func(*sim.AccessLog)) (uint64, float64) {
		log := sim.NewAccessLog()
		log.EnableDigest()
		step := func() {
			log.Reset()
			log.BeginStep()
			update(log)
			log.EndStep(0)
		}
		step()
		return log.StateDigest(), testing.AllocsPerRun(100, step)
	}
	snap := memory.NewAtomicSnapshot[proposal](keyC.WithPart(1), 3)
	var op memory.SnapOp[proposal]
	got, allocs := digest(func(l *sim.AccessLog) { snap.DirectUpdate(l, &op, 1, p) })
	if allocs != 0 {
		t.Errorf("digested proposal update allocated %.1f objects; want 0", allocs)
	}
	want, _ := digest(func(l *sim.AccessLog) {
		// The snapshot interns every position on its first access.
		for i := range 3 {
			l.Intern(keyC.WithPart(1).WithCell(i))
		}
		l.RecordValued(l.Intern(keyC.WithPart(1).WithCell(1)), sim.AccessWrite, sim.StateFP(memory.Some(p)))
	})
	if got != want {
		t.Errorf("digest after a proposal update = %#x, want %#x as with the boxed fingerprint", got, want)
	}
}
