package sim

import (
	"reflect"
	"testing"
)

// seamOracle is a minimal stable oracle for seam tests.
type seamOracle struct{ v any }

func (c seamOracle) Value(PID, Time) any { return c.v }

// flipOracle is a minimal FlipOracle: out[i] while t < flips[i], stable
// afterwards.
type flipOracle struct {
	flips  []Time
	out    []any
	stable any
}

func (f *flipOracle) Value(_ PID, t Time) any {
	for i, ft := range f.flips {
		if t < ft {
			return f.out[i]
		}
	}
	return f.stable
}

func (f *flipOracle) FlipTimes() []Time { return f.flips }

// queryMachine queries its oracle on the scripted steps (1-based own-step
// indices) and yields otherwise; it decides its last query result after
// `steps` steps.
type queryMachine struct {
	h       Oracle
	queryOn map[int]bool
	steps   int

	ctx  MachineContext
	n    int
	last Value
}

func (m *queryMachine) Init(ctx MachineContext) { m.ctx = ctx }

func (m *queryMachine) Step(t Time) MachineStatus {
	m.n++
	if m.queryOn[m.n] {
		if v, ok := m.ctx.Queries.Query(m.h, m.ctx.ID, t).(int); ok {
			m.last = Value(v)
		}
	}
	if m.n >= m.steps {
		return MachineDecided
	}
	return MachineRunning
}

func (m *queryMachine) Decision() Value { return m.last }

// stepAccesses renders the log's per-step access strings.
func stepAccesses(l *AccessLog) []string {
	var out []string
	for i := 0; i < l.Steps(); i++ {
		_, accs := l.Step(i)
		out = append(out, l.AccessString(accs))
	}
	return out
}

// TestQuerySeamRecording pins the seam's access model: a query is a read of
// the history object, the step at a flip time carries a write, and the step
// one before a flip carries the boundary-guard read. Stable histories induce
// only reads.
func TestQuerySeamRecording(t *testing.T) {
	h := &flipOracle{flips: []Time{3}, out: []any{1}, stable: 2}
	log := NewAccessLog()
	seam := NewQuerySeam(log)
	seam.Register("H", h)

	m := &queryMachine{h: h, queryOn: map[int]bool{2: true, 4: true}, steps: 5}
	rep, err := RunMachines(Config{
		Pattern:   FailFree(1),
		Schedule:  RoundRobin(),
		AccessLog: log,
		Queries:   seam,
	}, []StepMachine{m})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 2 {
		t.Fatalf("post-flip query returned %d, want the stable value 2", rep.Decided[0])
	}
	want := []string{
		"-",         // t=1: nothing
		"R(H) R(H)", // t=2: boundary guard (flip at 3) + the query's own read
		"W(H)",      // t=3: the flip
		"R(H)",      // t=4: the query
		"-",         // t=5
	}
	if got := stepAccesses(log); !reflect.DeepEqual(got, want) {
		t.Fatalf("recorded %v, want %v", got, want)
	}
}

// TestQuerySeamStableHistoryInert: a stable (flip-free) history induces only
// query reads — never a write — so it can never make two steps conflict and
// the DPOR search at SwitchBudget=0 is unchanged by the seam.
func TestQuerySeamStableHistoryInert(t *testing.T) {
	h := seamOracle{v: 7}
	log := NewAccessLog()
	seam := NewQuerySeam(log)
	seam.Register("H", h)

	m := &queryMachine{h: h, queryOn: map[int]bool{1: true, 3: true}, steps: 3}
	if _, err := RunMachines(Config{
		Pattern:   FailFree(1),
		Schedule:  RoundRobin(),
		AccessLog: log,
		Queries:   seam,
	}, []StepMachine{m}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < log.Steps(); i++ {
		_, accs := log.Step(i)
		for _, a := range accs {
			if a.Kind == AccessWrite {
				t.Fatalf("stable history recorded a write at step %d: %v", i, stepAccesses(log))
			}
		}
	}
}

// TestQuerySeamConflictSemantics is the commutativity-oracle case for the
// refined independence relation: a detector-query step and a flip-carrying
// step must be reported conflicting (the reversed order gives the query a
// different result), as must the boundary-guard pair — while two query steps
// of a stable history commute.
func TestQuerySeamConflictSemantics(t *testing.T) {
	h := &flipOracle{flips: []Time{3}, out: []any{1}, stable: 2}
	log := NewAccessLog()
	seam := NewQuerySeam(log)
	seam.Register("H", h)

	// Two processes: p0 queries on its 2nd step, p1 never queries. Under
	// round-robin, p0 steps at t=1,3 and p1 at t=2,4 — so p0's query at t=3
	// is the flip-carrying step and p1's step at t=2 carries the guard.
	p0 := &queryMachine{h: h, queryOn: map[int]bool{2: true}, steps: 2}
	p1 := &queryMachine{h: h, steps: 2}
	rep, err := RunMachines(Config{
		Pattern:   FailFree(2),
		Schedule:  RoundRobin(),
		AccessLog: log,
		Queries:   seam,
	}, []StepMachine{p0, p1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 2 {
		t.Fatalf("query at the flip time returned %d, want post-flip 2", rep.Decided[0])
	}
	_, guard := log.Step(1) // p1 at t=2: boundary guard R(H)
	_, flip := log.Step(2)  // p0 at t=3: W(H) flip + R(H) query
	if !AccessesConflict(guard, flip) {
		t.Errorf("boundary guard %v and flip step %v reported independent; commuting them would move the query across the flip",
			log.AccessString(guard), log.AccessString(flip))
	}

	// Control: two queries of a stable history commute (read-read).
	log2 := NewAccessLog()
	seam2 := NewQuerySeam(log2)
	stable := seamOracle{v: 5}
	seam2.Register("H", stable)
	q0 := &queryMachine{h: stable, queryOn: map[int]bool{1: true}, steps: 1}
	q1 := &queryMachine{h: stable, queryOn: map[int]bool{1: true}, steps: 1}
	if _, err := RunMachines(Config{
		Pattern:   FailFree(2),
		Schedule:  RoundRobin(),
		AccessLog: log2,
		Queries:   seam2,
	}, []StepMachine{q0, q1}); err != nil {
		t.Fatal(err)
	}
	_, a := log2.Step(0)
	_, b := log2.Step(1)
	if AccessesConflict(a, b) {
		t.Errorf("two stable-history queries %v / %v reported conflicting", log2.AccessString(a), log2.AccessString(b))
	}
}

// TestQuerySeamNilAndUnregistered: a nil seam and an unregistered oracle
// evaluate directly and record nothing.
func TestQuerySeamNilAndUnregistered(t *testing.T) {
	var nilSeam *QuerySeam
	if v := nilSeam.Query(seamOracle{v: 9}, 0, 1); v.(int) != 9 {
		t.Fatalf("nil seam query returned %v", v)
	}
	nilSeam.OnStep(1) // must not panic

	log := NewAccessLog()
	seam := NewQuerySeam(log)
	seam.Register("H", seamOracle{v: 1})
	log.BeginStep()
	if v := seam.Query(seamOracle{v: 2}, 0, 1); v.(int) != 2 {
		t.Fatalf("unregistered query returned %v", v)
	}
	log.EndStep(0)
	if _, accs := log.Step(0); len(accs) != 0 {
		t.Fatalf("unregistered oracle recorded accesses: %v", log.AccessString(accs))
	}
}

// TestRunMachinesNilSeamZeroAlloc extends the zero-alloc promise to the
// query seam: the nil-seam default adds no allocations to the machine
// runner's step loop.
func TestRunMachinesNilSeamZeroAlloc(t *testing.T) {
	var h Oracle = seamOracle{v: 3} // box once, outside the measured loop
	allocs := testing.AllocsPerRun(20, func() {
		var q *QuerySeam
		for t := Time(1); t <= 64; t++ {
			q.OnStep(t)
			_ = q.Query(h, 0, t)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil seam allocated %.1f objects per 64-step batch; want 0", allocs)
	}
}

// TestQuerySeamDigestZeroAlloc pins the allocation behavior of the seam
// methods the source engine calls on its per-run hot path — the race
// analysis's flip-crossing test and the flip count. Both must stay
// allocation-free.
func TestQuerySeamDigestZeroAlloc(t *testing.T) {
	log := NewAccessLog()
	seam := NewQuerySeam(log)
	seam.Register("H", &flipOracle{flips: []Time{3, 9}, out: []any{Set(1), Set(3)}, stable: Set(2)})
	seam.Register("G", seamOracle{v: 5})
	id := log.Intern(KeyOf("H"))
	allocs := testing.AllocsPerRun(20, func() {
		for t := Time(1); t <= 16; t++ {
			_ = seam.FlipCrossed(id, t, t+4)
			_ = seam.FlipsRemaining(t)
		}
	})
	if allocs != 0 {
		t.Fatalf("seam digest methods allocated %.1f objects per 16-step batch; want 0", allocs)
	}
}
