package explore

import (
	"fmt"
	"maps"
	"math/bits"
	"testing"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// The toy systems below validate the DPOR engine against ground truth small
// enough to reason about by hand: two processes, two operations each.

// toyMachine reads a register, then writes source+1 to another register and
// decides the written value — the canonical lost-update shape when src and
// dst are the same shared counter for both processes.
type toyMachine struct {
	src, dst *memory.Register[int64]
	log      *sim.AccessLog
	local    int64
	pc       int
}

func (m *toyMachine) Init(ctx sim.MachineContext) { m.log = ctx.Log }

func (m *toyMachine) Step(sim.Time) sim.MachineStatus {
	switch m.pc {
	case 0:
		m.local = m.src.DirectRead(m.log)
		m.pc = 1
		return sim.MachineRunning
	default:
		m.dst.DirectWrite(m.log, m.local+1)
		return sim.MachineDecided
	}
}

func (m *toyMachine) Decision() sim.Value { return sim.Value(m.local + 1) }

// toySystem is a 2-process failure-free system over toy machines.
type toySystem struct {
	name     string
	disjoint bool
	props    []Property
}

func (s toySystem) Name() string   { return s.name }
func (s toySystem) N() int         { return 2 }
func (s toySystem) MaxFaults() int { return 0 }
func (s toySystem) Oracles(sim.Pattern, SwitchPlan) []OracleChoice {
	return []OracleChoice{{Name: "-"}}
}
func (s toySystem) Properties() []Property { return s.props }

func (s toySystem) LegalFlipOut(sim.Set) error { return nil }

func (s toySystem) Instantiate(sim.Pattern, OracleChoice) Instance {
	if s.disjoint {
		// Each process owns a private counter: every pair of steps of
		// different processes commutes.
		a := memory.NewRegister[int64](sim.KeyOf("a"))
		b := memory.NewRegister[int64](sim.KeyOf("b"))
		return Instance{Machines: []sim.StepMachine{
			&toyMachine{src: a, dst: a},
			&toyMachine{src: b, dst: b},
		}}
	}
	// Shared counter: read-read commutes, read-write and write-write do not.
	x := memory.NewRegister[int64](sim.KeyOf("x"))
	return Instance{Machines: []sim.StepMachine{
		&toyMachine{src: x, dst: x},
		&toyMachine{src: x, dst: x},
	}}
}

// propSomeoneDecides2 fails on the lost-update interleavings (both read 0
// before either writes), where both processes decide 1.
type propSomeoneDecides2 struct{}

func (propSomeoneDecides2) Name() string { return "someone-decides-2" }
func (propSomeoneDecides2) Check(r *Run) error {
	for _, v := range r.Report.Decided {
		if v == 2 {
			return nil
		}
	}
	return fmt.Errorf("no process decided 2: %v", r.Report.Decided)
}

// propAlwaysHolds never fails; it exists so clean sweeps still execute the
// checking path.
type propAlwaysHolds struct{}

func (propAlwaysHolds) Name() string     { return "always-holds" }
func (propAlwaysHolds) Check(*Run) error { return nil }

// TestDPORDisjointSingleRun: when every step of one process commutes with
// every step of the other, the whole schedule space is one Mazurkiewicz
// trace and each engine must execute exactly one run.
func TestDPORDisjointSingleRun(t *testing.T) {
	for _, engine := range []Engine{EngineSource, EngineDPOR} {
		res := Explore(Config{
			System: toySystem{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}},
			Engine: engine,
		})
		if res.Runs != 1 {
			t.Errorf("%v: disjoint toy explored %d runs, want exactly 1", engine, res.Runs)
		}
		if len(res.Violations) != 0 {
			t.Errorf("%v: unexpected violations: %v", engine, res.Violations)
		}
	}
}

// TestDPORFindsRaceReversal: the lost-update violation exists only in the
// interleavings where both reads precede both writes. Each engine must
// reach one via backtracking from the races it observes, within the 6 raw
// interleavings of the 2+2-step space (classic DPOR with sleep sets is
// sound but not optimal: on this 4-class space it may execute all 6).
func TestDPORFindsRaceReversal(t *testing.T) {
	for _, engine := range []Engine{EngineSource, EngineDPOR} {
		res := Explore(Config{
			System: toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}},
			Engine: engine,
		})
		if len(res.Violations) == 0 {
			t.Errorf("%v: missed the lost-update interleaving (%d runs)", engine, res.Runs)
			continue
		}
		if res.Runs > 6 {
			t.Errorf("%v: executed %d runs; the whole raw space is 6 interleavings", engine, res.Runs)
		}
		t.Logf("%v: lost update found in %d runs (%d pruned): %v", engine, res.Runs, res.Pruned, res.Violations[0])
	}
}

// TestDPORAgreesWithEnumOnToy: both reducing engines judge the toy systems
// exactly as an exhaustive enumeration of their raw interleavings does —
// the same violated properties, in no more runs than there are
// interleavings. The enumeration itself is checked against the hand count:
// the lost update happens in the 4 of 6 interleavings where both reads
// precede both writes.
func TestDPORAgreesWithEnumOnToy(t *testing.T) {
	for _, tc := range []struct {
		sys       toySystem
		violating int
	}{
		{toySystem{name: "toy-shared", props: []Property{propSomeoneDecides2{}}}, 4},
		{toySystem{name: "toy-disjoint", disjoint: true, props: []Property{propAlwaysHolds{}}}, 0},
	} {
		schedules := toyInterleavings()
		want := map[string]bool{}
		violating := 0
		for _, schedule := range schedules {
			run := execute(tc.sys, sim.FailFree(2), OracleChoice{Name: "-"}, sim.NewFixedSchedule(schedule), 16, nil, nil)
			if run.Err != nil {
				t.Fatalf("%s %v: %v", tc.sys.name, schedule, run.Err)
			}
			bad := false
			for _, prop := range tc.sys.props {
				if prop.Check(run) != nil {
					want[prop.Name()], bad = true, true
				}
			}
			if bad {
				violating++
			}
		}
		if violating != tc.violating {
			t.Fatalf("%s: %d of %d interleavings violate, want %d", tc.sys.name, violating, len(schedules), tc.violating)
		}
		for _, engine := range []Engine{EngineSource, EngineDPOR} {
			res := Explore(Config{System: tc.sys, Engine: engine})
			got := map[string]bool{}
			for _, v := range res.Violations {
				got[v.Property] = true
			}
			if !maps.Equal(got, want) {
				t.Errorf("%s %v: violated properties %v, enumeration %v", tc.sys.name, engine, got, want)
			}
			if res.Runs > int64(len(schedules)) {
				t.Errorf("%s %v: %d runs, more than the %d raw interleavings", tc.sys.name, engine, res.Runs, len(schedules))
			}
		}
	}
}

// toyInterleavings lists the 6 raw interleavings of the toys' two 2-step
// processes as grant sequences: every 4-bit word with two bits set, bit i
// naming the process granted step i.
func toyInterleavings() [][]sim.PID {
	var out [][]sim.PID
	for word := uint(0); word < 16; word++ {
		if bits.OnesCount(word) != 2 {
			continue
		}
		schedule := make([]sim.PID, 4)
		for i := range schedule {
			schedule[i] = sim.PID(word >> i & 1)
		}
		out = append(out, schedule)
	}
	return out
}

// TestDPORTaskMachines: the explorer drives multi-task systems
// (Instance.Tasks → sim.RunTaskMachines) through the same DPOR lens; a
// composed n=2 sweep over one configuration must be deterministic and
// violation-free.
func TestDPORTaskMachines(t *testing.T) {
	run := func() *Result {
		return Explore(Config{System: ComposedSystem(2), MaxDepth: 16, Budget: 4096})
	}
	a := run()
	if len(a.Violations) != 0 {
		t.Fatalf("composed n=2: %v", a.Violations)
	}
	if a.Runs < 2 {
		t.Fatalf("composed n=2 explored only %d runs; task interleavings should race", a.Runs)
	}
	b := run()
	if a.Runs != b.Runs || a.Pruned != b.Pruned {
		t.Fatalf("task-machine DPOR not deterministic: (%d,%d) vs (%d,%d)", a.Runs, a.Pruned, b.Runs, b.Pruned)
	}
}
