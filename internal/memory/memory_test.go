package memory

import (
	"fmt"
	"testing"
	"testing/quick"

	"weakestfd/internal/sim"
)

// opMachine runs a script of shared-memory operations: each op is repeated,
// one step per call, until it reports done, and the step completing the last
// op decides decide() (0 when decide is nil) — a body with its loop unrolled.
type opMachine struct {
	ops      []func(l *sim.AccessLog, me sim.PID) (done bool)
	decide   func() sim.Value
	me       sim.PID
	log      *sim.AccessLog
	pc       int
	decision sim.Value
}

func (m *opMachine) Init(ctx sim.MachineContext) { m.me, m.log = ctx.ID, ctx.Log }

func (m *opMachine) Step(sim.Time) sim.MachineStatus {
	if m.ops[m.pc](m.log, m.me) {
		m.pc++
	}
	if m.pc < len(m.ops) {
		return sim.MachineRunning
	}
	if m.decide != nil {
		m.decision = m.decide()
	}
	return sim.MachineDecided
}

func (m *opMachine) Decision() sim.Value { return m.decision }

// update and scan wrap one snapshot operation as an opMachine op; each
// machine brings its own SnapOp, as a process does.
func update(s Snapshot[sim.Value], op *SnapOp[sim.Value], v func(me sim.PID) sim.Value) func(*sim.AccessLog, sim.PID) bool {
	return func(l *sim.AccessLog, me sim.PID) bool { return s.DirectUpdate(l, op, me, v(me)) }
}

func scan(s Snapshot[sim.Value], op *SnapOp[sim.Value], got func(view []Opt[sim.Value])) func(*sim.AccessLog, sim.PID) bool {
	return func(l *sim.AccessLog, _ sim.PID) bool {
		view, done := s.DirectScan(l, op, nil)
		if done {
			got(view)
		}
		return done
	}
}

// keep returns a scan callback storing the view in *dst.
func keep(dst *[]Opt[sim.Value]) func([]Opt[sim.Value]) {
	return func(view []Opt[sim.Value]) { *dst = view }
}

func TestRegisterReadWrite(t *testing.T) {
	reg := NewRegister[int](sim.KeyOf("r"))
	var last int
	m := &opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{
		func(l *sim.AccessLog, _ sim.PID) bool {
			if got := reg.DirectRead(l); got != 0 {
				t.Errorf("initial read = %d", got)
			}
			return true
		},
		func(l *sim.AccessLog, _ sim.PID) bool { reg.DirectWrite(l, 7); return true },
		func(l *sim.AccessLog, _ sim.PID) bool { last = reg.DirectRead(l); return true },
	}, decide: func() sim.Value { return sim.Value(last) }}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(1), Schedule: sim.RoundRobin()},
		[]sim.StepMachine{m})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Decided[0] != 7 {
		t.Errorf("read back %v", rep.Decided[0])
	}
	if rep.Steps != 3 {
		t.Errorf("3 register ops cost %d steps", rep.Steps)
	}
	if reg.Inspect() != 7 {
		t.Errorf("Inspect = %d", reg.Inspect())
	}
}

func TestRegisterOpt(t *testing.T) {
	if Some(3) != (Opt[int]{V: 3, OK: true}) {
		t.Errorf("Some wrong")
	}
	if None[int]() != (Opt[int]{}) {
		t.Errorf("None wrong")
	}
}

func TestArrayCollect(t *testing.T) {
	arr := NewArray[int](sim.KeyOf("a"), 3)
	machines := make([]sim.StepMachine, 3)
	for i := range machines {
		sum := 0
		ops := []func(*sim.AccessLog, sim.PID) bool{
			func(l *sim.AccessLog, me sim.PID) bool { arr.DirectWrite(l, me, int(me)+10); return true },
		}
		for j := 0; j < arr.N(); j++ {
			ops = append(ops, func(l *sim.AccessLog, _ sim.PID) bool {
				sum += arr.DirectRead(l, sim.PID(j))
				return true
			})
		}
		machines[i] = &opMachine{ops: ops, decide: func() sim.Value { return sim.Value(sum) }}
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(3), Schedule: sim.RoundRobin()}, machines)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin: all three write before anyone collects, so each collect
	// sees 10+11+12.
	for p, v := range rep.Decided {
		if v != 33 {
			t.Errorf("%v collected sum %d, want 33", p, v)
		}
	}
	if got := arr.Inspect(); got[0] != 10 || got[1] != 11 || got[2] != 12 {
		t.Errorf("Inspect = %v", got)
	}
	if arr.N() != 3 {
		t.Errorf("N = %d", arr.N())
	}
	if arr.At(1).Inspect() != 11 {
		t.Errorf("At(1) = %d", arr.At(1).Inspect())
	}
}

// snapshotFactories enumerates the two implementations under test.
func snapshotFactories() map[string]func(key sim.ObjKey, n int) Snapshot[sim.Value] {
	return map[string]func(key sim.ObjKey, n int) Snapshot[sim.Value]{
		"atomic": NewAtomicSnapshot[sim.Value],
		"afek":   NewAfekSnapshot[sim.Value],
	}
}

func TestSnapshotUpdateScan(t *testing.T) {
	for name, factory := range snapshotFactories() {
		t.Run(name, func(t *testing.T) {
			snap := factory(sim.KeyOf("s"), 2)
			machines := make([]sim.StepMachine, 2)
			for i := range machines {
				var op SnapOp[sim.Value]
				var view []Opt[sim.Value]
				me := sim.PID(i)
				machines[i] = &opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{
					update(snap, &op, func(me sim.PID) sim.Value { return sim.Value(me) + 100 }),
					scan(snap, &op, keep(&view)),
				}, decide: func() sim.Value {
					if own := view[me]; !own.OK || own.V != sim.Value(me)+100 {
						t.Errorf("%v: own update not visible in own scan: %v", me, view)
					}
					return sim.Value(CountSome(view))
				}}
			}
			rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(2), Schedule: sim.NewRandom(3)}, machines)
			if err != nil {
				t.Fatal(err)
			}
			for p, v := range rep.Decided {
				if v < 1 || v > 2 {
					t.Errorf("%v saw %d entries", p, v)
				}
			}
		})
	}
}

// containmentRun has n processes alternate ops updates and scans under the
// given schedule, returning the run's report and every scan. Values encode
// (pid, iteration) so containment is checkable: later values are strictly
// larger.
func containmentRun(snap Snapshot[sim.Value], n, ops int, sched sim.Schedule) (*sim.Report, [][]Opt[sim.Value], error) {
	var scans [][]Opt[sim.Value]
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		var op SnapOp[sim.Value]
		var script []func(*sim.AccessLog, sim.PID) bool
		for k := 0; k < ops; k++ {
			script = append(script,
				update(snap, &op, func(me sim.PID) sim.Value { return sim.Value(int(me)*1000 + k) }),
				scan(snap, &op, func(view []Opt[sim.Value]) { scans = append(scans, view) }))
		}
		machines[i] = &opMachine{ops: script}
	}
	rep, err := sim.RunMachines(sim.Config{Pattern: sim.FailFree(n), Schedule: sched}, machines)
	return rep, scans, err
}

// allComparable reports whether every pair of scans is related by
// containment, naming an incomparable pair otherwise.
func allComparable(scans [][]Opt[sim.Value]) (int, int, bool) {
	dominates := func(a, b []Opt[sim.Value]) bool {
		for j := range a {
			if b[j].OK && (!a[j].OK || a[j].V < b[j].V) {
				return false
			}
		}
		return true
	}
	for x := range scans {
		for y := range scans {
			if !dominates(scans[x], scans[y]) && !dominates(scans[y], scans[x]) {
				return x, y, false
			}
		}
	}
	return 0, 0, true
}

// TestSnapshotContainment drives many interleaved update/scan workloads and
// verifies the defining property of atomic snapshots: all scans are related
// by containment on sequence numbers (a scan that sees process j's k-th
// update is ≥, positionwise, any scan that doesn't).
func TestSnapshotContainment(t *testing.T) {
	for name, factory := range snapshotFactories() {
		for seed := int64(0); seed < 20; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				_, scans, err := containmentRun(factory(sim.KeyOf("s"), 4), 4, 6, sim.NewRandom(seed))
				if err != nil {
					t.Fatal(err)
				}
				if len(scans) != 4*6 {
					t.Fatalf("%d scans completed, want %d", len(scans), 4*6)
				}
				if x, y, ok := allComparable(scans); !ok {
					t.Fatalf("scans %d and %d incomparable:\n%v\n%v",
						x, y, ScanString(scans[x]), ScanString(scans[y]))
				}
			})
		}
	}
}

// TestSnapshotRegularity: a scan must reflect every update that completed
// before it started (no lost updates), for both implementations.
func TestSnapshotRegularity(t *testing.T) {
	for name, factory := range snapshotFactories() {
		t.Run(name, func(t *testing.T) {
			snap := factory(sim.KeyOf("s"), 3)
			var op0, op1, op2 SnapOp[sim.Value]
			var view []Opt[sim.Value]
			nine := func(sim.PID) sim.Value { return 9 }
			machines := []sim.StepMachine{
				&opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{update(snap, &op0, nine)}},
				&opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{update(snap, &op1, nine)}},
				// Priority schedule runs writers to completion first.
				&opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{scan(snap, &op2, keep(&view))},
					decide: func() sim.Value { return sim.Value(CountSome(view)) }},
			}
			rep, err := sim.RunMachines(sim.Config{
				Pattern:  sim.FailFree(3),
				Schedule: sim.Priority(0, 1, 2),
			}, machines)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Decided[2] != 2 {
				t.Errorf("scan after 2 completed updates saw %d entries", rep.Decided[2])
			}
		})
	}
}

// TestAfekScanBorrowsView exercises the helping path: a scanner is
// interleaved with a writer that keeps moving, forcing the double-collect to
// fail until the scanner borrows an embedded view.
func TestAfekScanBorrowsView(t *testing.T) {
	n := 2
	snap := NewAfekSnapshot[sim.Value](sim.KeyOf("s"), n)
	var scanOp, writeOp SnapOp[sim.Value]
	var scanned []Opt[sim.Value]
	var writes []func(*sim.AccessLog, sim.PID) bool
	for k := 0; k < 100; k++ {
		writes = append(writes, update(snap, &writeOp, func(sim.PID) sim.Value { return sim.Value(k) }))
	}
	machines := []sim.StepMachine{
		&opMachine{ops: []func(*sim.AccessLog, sim.PID) bool{scan(snap, &scanOp, keep(&scanned))}},
		&opMachine{ops: writes},
	}
	// Give the writer 8 steps per scanner step: an Afek update costs ~6
	// steps (embedded scan + read + write), so the writer completes at
	// least one update between any two scanner reads, defeating the double
	// collect until the scanner borrows an embedded view.
	weighted := sim.Func(func(t sim.Time, enabled sim.Set) sim.PID {
		if t%9 == 0 && enabled.Has(0) {
			return 0
		}
		if enabled.Has(1) {
			return 1
		}
		return 0
	})
	_, err := sim.RunMachines(sim.Config{
		Pattern:  sim.FailFree(n),
		Schedule: weighted,
		Budget:   1 << 16,
	}, machines)
	if err != nil {
		t.Fatal(err)
	}
	if scanned == nil {
		t.Fatal("scan did not complete")
	}
	if !scanned[1].OK {
		t.Errorf("borrowed view misses the writer: %v", ScanString(scanned))
	}
}

func TestCountSome(t *testing.T) {
	scan := []Opt[int]{Some(1), None[int](), Some(3)}
	if CountSome(scan) != 2 {
		t.Errorf("CountSome = %d", CountSome(scan))
	}
}

func TestScanString(t *testing.T) {
	scan := []Opt[int]{Some(1), None[int]()}
	if got := ScanString(scan); got != "[1 ⊥]" {
		t.Errorf("ScanString = %q", got)
	}
}

// TestSnapshotQuickContainment is a property test: random small schedules
// over random op counts preserve pairwise scan comparability.
func TestSnapshotQuickContainment(t *testing.T) {
	prop := func(seed int64, opsRaw uint8) bool {
		_, scans, err := containmentRun(NewAfekSnapshot[sim.Value](sim.KeyOf("s"), 3), 3, int(opsRaw%5)+1, sim.NewRandom(seed))
		if err != nil {
			return false
		}
		_, _, ok := allComparable(scans)
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// BenchmarkAfekSnapshotOps measures the raw substrate: snapshot operation
// cost in simulator steps for both implementations.
func BenchmarkAfekSnapshotOps(b *testing.B) {
	for _, impl := range []string{"atomic", "afek"} {
		b.Run(impl, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				rep, _, err := containmentRun(snapshotFactories()[impl](sim.KeyOf("s"), 5), 5, 4, sim.NewRandom(int64(i)))
				if err != nil {
					b.Fatal(err)
				}
				steps += rep.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}
