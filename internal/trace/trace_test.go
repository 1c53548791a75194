package trace

import (
	"strings"
	"testing"

	"weakestfd/internal/fd"
	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

func TestLabelClass(t *testing.T) {
	tests := []struct{ in, want string }{
		{"read D", "read D"},
		{"read D[3]", "read D[·]"},
		{"read D[17]", "read D[·]"},
		{"update nconv[2][5]/3.A", "update nconv[·][·]/·.A"},
		{"scan A[1][2]/4", "scan A[·][·]/·"},
		{"query", "query"},
		{"write R[0]", "write R[·]"},
		{"read Stable[12]", "read Stable[·]"},
		{"write HB7", "write HB·"},
	}
	for _, tt := range tests {
		if got := LabelClass(tt.in); got != tt.want {
			t.Errorf("LabelClass(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

// scriptMachine performs one scripted step per Step call and decides after
// the last one.
type scriptMachine struct {
	steps []func(ctx sim.MachineContext, t sim.Time)
	ctx   sim.MachineContext
	pc    int
}

func (m *scriptMachine) Init(ctx sim.MachineContext) { m.ctx = ctx }

func (m *scriptMachine) Step(t sim.Time) sim.MachineStatus {
	m.steps[m.pc](m.ctx, t)
	if m.pc++; m.pc < len(m.steps) {
		return sim.MachineRunning
	}
	return sim.MachineDecided
}

func (m *scriptMachine) Decision() sim.Value { return 0 }

func TestRecorderAndSummary(t *testing.T) {
	reg := memory.NewRegister[int](sim.KeyOf("X"))
	arr := memory.NewArray[int](sim.KeyOf("Y"), 2)
	snap := memory.NewAtomicSnapshot[int](sim.KeyOf("S"), 2)
	h := fd.Constant(sim.SetOf(0))
	mk := func() sim.StepMachine {
		return &scriptMachine{steps: []func(sim.MachineContext, sim.Time){
			func(ctx sim.MachineContext, _ sim.Time) { reg.DirectWrite(ctx.Log, 1) },
			func(ctx sim.MachineContext, _ sim.Time) { arr.DirectWrite(ctx.Log, ctx.ID, 2) },
			func(ctx sim.MachineContext, _ sim.Time) { reg.DirectRead(ctx.Log) },
			func(ctx sim.MachineContext, _ sim.Time) { snap.DirectScan(ctx.Log, nil, nil) },
			func(ctx sim.MachineContext, t sim.Time) { fd.QueryAt[sim.Set](ctx.Queries, h, ctx.ID, t) },
			func(sim.MachineContext, sim.Time) {},
		}}
	}
	log := sim.NewAccessLog()
	seam := sim.NewQuerySeam(log)
	seam.Register("H", h)
	_, err := sim.RunMachines(sim.Config{
		Pattern:   sim.FailFree(2),
		Schedule:  sim.RoundRobin(),
		AccessLog: log,
		Queries:   seam,
	}, []sim.StepMachine{mk(), mk()})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(log, 2)
	if s.Total != 12 {
		t.Fatalf("Total = %d, want 12", s.Total)
	}
	if s.ByProc[0] != 6 || s.ByProc[1] != 6 {
		t.Fatalf("ByProc = %v", s.ByProc)
	}
	for class, want := range map[string]int64{
		"W(X)": 2, "W(Y[·])": 2, "R(X)": 2, "R(S[·])": 2, "R(H)": 2, NoAccess: 2,
	} {
		if s.ByClass[class] != want {
			t.Fatalf("ByClass[%q] = %d, want %d; classes: %v", class, s.ByClass[class], want, s.ByClass)
		}
	}
	out := s.String()
	for _, want := range []string{"steps: 12", "W(X)", "W(Y[·])", "R(S[·])"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
}

// TestEmptySummary: every process gets a row, with count 0 when it took no
// step.
func TestEmptySummary(t *testing.T) {
	s := Summarize(sim.NewAccessLog(), 2)
	if s.Total != 0 || len(s.ByProc) != 2 || s.ByProc[0] != 0 || s.ByProc[1] != 0 || len(s.ByClass) != 0 {
		t.Fatalf("empty summary wrong: %+v", s)
	}
}
