package memory

import (
	"reflect"
	"testing"

	"weakestfd/internal/sim"
)

// events renders a log's current recorded accesses (ignoring step spans) as
// "R(name)"/"W(name)" strings, via a synthetic single step.
func events(l *sim.AccessLog) []string {
	l.EndStep(0)
	_, accs := l.Step(l.Steps() - 1)
	var out []string
	for _, a := range accs {
		out = append(out, a.Kind.String()+"("+l.ObjName(a.Obj)+")")
	}
	return out
}

// TestAccessClassification pins the exact (object, read|write) event
// sequence each Direct* accessor reports — the ground truth the DPOR
// explorer's independence relation is built on.
func TestAccessClassification(t *testing.T) {
	cases := []struct {
		name string
		ops  func(l *sim.AccessLog)
		want []string
	}{
		{
			name: "register read",
			ops: func(l *sim.AccessLog) {
				r := NewRegister[int](sim.KeyOf("r"))
				r.DirectRead(l)
			},
			want: []string{"R(r)"},
		},
		{
			name: "register write",
			ops: func(l *sim.AccessLog) {
				r := NewRegister[int](sim.KeyOf("r"))
				r.DirectWrite(l, 7)
			},
			want: []string{"W(r)"},
		},
		{
			name: "register write then read",
			ops: func(l *sim.AccessLog) {
				r := NewRegister[int](sim.KeyOf("r"))
				r.DirectWrite(l, 7)
				if r.DirectRead(l) != 7 {
					t.Error("lost write")
				}
			},
			want: []string{"W(r)", "R(r)"},
		},
		{
			name: "array accesses are per-register",
			ops: func(l *sim.AccessLog) {
				a := NewArray[int](sim.KeyOf("a"), 3)
				a.DirectWrite(l, 2, 9)
				a.DirectRead(l, 0)
				a.DirectRead(l, 2)
			},
			want: []string{"W(a[2])", "R(a[0])", "R(a[2])"},
		},
		{
			name: "snapshot update writes one cell",
			ops: func(l *sim.AccessLog) {
				s := NewAtomicSnapshot[int](sim.KeyOf("s"), 3)
				s.DirectUpdate(l, nil, 1, 5)
			},
			want: []string{"W(s[1])"},
		},
		{
			name: "snapshot scan reads every cell in order",
			ops: func(l *sim.AccessLog) {
				s := NewAtomicSnapshot[int](sim.KeyOf("s"), 3)
				s.DirectScan(l, nil, nil)
			},
			want: []string{"R(s[0])", "R(s[1])", "R(s[2])"},
		},
		{
			name: "snapshot update+scan",
			ops: func(l *sim.AccessLog) {
				s := NewAtomicSnapshot[int](sim.KeyOf("s"), 2)
				s.DirectUpdate(l, nil, 0, 1)
				s.DirectScan(l, nil, nil)
			},
			want: []string{"W(s[0])", "R(s[0])", "R(s[1])"},
		},
		{
			name: "consensus propose is a write",
			ops: func(l *sim.AccessLog) {
				c := NewConsensusObject(sim.KeyOf("c"), 2)
				c.DirectPropose(l, 0, 4)
				c.DirectPropose(l, 1, 8)
			},
			want: []string{"W(c)", "W(c)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := sim.NewAccessLog()
			l.BeginStep()
			tc.ops(l)
			if got := events(l); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("recorded %v, want %v", got, tc.want)
			}
		})
	}
}

// writeThenDecide writes v into r, then reads r and decides what it read:
// one scripted access per step, the minimal machine for commutativity
// experiments.
func writeThenDecide(r *Register[int], v int) sim.StepMachine {
	var got int
	return &opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{
		func(l *sim.AccessLog, _ sim.PID) bool { r.DirectWrite(l, v); return true },
		func(l *sim.AccessLog, _ sim.PID) bool { got = r.DirectRead(l); return true },
	}, decide: func() sim.Value { return sim.Value(got) }}
}

// TestCommutativityOracle is the semantic justification of the DPOR
// independence relation: two adjacent steps whose recorded access sets are
// disjoint produce DeepEqual-identical reports (and shared state) when
// swapped — each machine takes a later, deciding step, so the swap is
// mid-run, exactly the reordering DPOR prunes. The control shows a
// conflicting pair distinguishing the orders.
func TestCommutativityOracle(t *testing.T) {
	type fixture struct {
		regs []*Register[int]
		mk   func() []sim.StepMachine
	}
	build := func(shared bool) fixture {
		a, b := NewRegister[int](sim.KeyOf("a")), NewRegister[int](sim.KeyOf("b"))
		f := fixture{regs: []*Register[int]{a, b}}
		f.mk = func() []sim.StepMachine {
			target := b
			if shared {
				target = a
			}
			return []sim.StepMachine{writeThenDecide(a, 1), writeThenDecide(target, 2)}
		}
		return f
	}

	runOrder := func(f fixture, order []sim.PID) (*sim.Report, []int, []sim.Access) {
		// Fresh register contents per run: rebuild the fixture's registers
		// by zeroing them (machines write absolute values).
		for _, r := range f.regs {
			r.DirectWrite(nil, 0)
		}
		log := sim.NewAccessLog()
		rep, err := sim.RunMachines(sim.Config{
			Pattern:   sim.FailFree(2),
			Schedule:  sim.NewFixedSchedule(order),
			AccessLog: log,
		}, f.mk())
		if err != nil {
			t.Fatal(err)
		}
		state := make([]int, len(f.regs))
		for i, r := range f.regs {
			state[i] = r.Inspect()
		}
		var all []sim.Access
		for i := 0; i < log.Steps(); i++ {
			_, accs := log.Step(i)
			all = append(all, accs...)
		}
		return rep, state, all
	}

	t.Run("disjoint accesses commute", func(t *testing.T) {
		f := build(false)
		rep1, st1, accs := runOrder(f, []sim.PID{0, 1})
		if sim.AccessesConflict(accs[:1], accs[1:2]) {
			t.Fatalf("disjoint fixture reported a conflict: %v", accs)
		}
		rep2, st2, _ := runOrder(f, []sim.PID{1, 0})
		rep1.Accesses, rep2.Accesses = nil, nil // compare outcomes, not logs
		if !reflect.DeepEqual(rep1, rep2) {
			t.Fatalf("reports differ under reordering:\n%+v\n%+v", rep1, rep2)
		}
		if !reflect.DeepEqual(st1, st2) {
			t.Fatalf("shared state differs under reordering: %v vs %v", st1, st2)
		}
	})

	t.Run("conflicting accesses need not commute", func(t *testing.T) {
		f := build(true)
		_, st1, accs := runOrder(f, []sim.PID{0, 1})
		if !sim.AccessesConflict(accs[:1], accs[1:2]) {
			t.Fatalf("shared fixture reported no conflict: %v", accs)
		}
		_, st2, _ := runOrder(f, []sim.PID{1, 0})
		if reflect.DeepEqual(st1, st2) {
			t.Fatal("write-write conflict produced identical state under both orders; control is vacuous")
		}
	})
}

// TestDirectAccessNilLogZeroAlloc is the lab hot path's promise: with
// instrumentation compiled in but disabled (nil log), the Direct* hot paths
// allocate nothing.
func TestDirectAccessNilLogZeroAlloc(t *testing.T) {
	r := NewRegister[int64](sim.KeyOf("r"))
	arr := NewArray[int64](sim.KeyOf("a"), 4)
	snap := NewAtomicSnapshot[int64](sim.KeyOf("s"), 4)
	var op SnapOp[int64]
	cons := NewConsensusObject(sim.KeyOf("c"), 4)
	scratch := make([]Opt[int64], 0, 8)
	allocs := testing.AllocsPerRun(100, func() {
		r.DirectWrite(nil, 1)
		_ = r.DirectRead(nil)
		arr.DirectWrite(nil, 2, 5)
		_ = arr.DirectRead(nil, 2)
		snap.DirectUpdate(nil, &op, 1, 9)
		scratch, _ = snap.DirectScan(nil, &op, scratch[:0])
		_ = cons.DirectPropose(nil, 0, 3)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocated %.1f objects per op batch; want 0", allocs)
	}
}
