package explore

import (
	"slices"
	"testing"

	"weakestfd/internal/memory"
	"weakestfd/internal/sim"
)

// Per-layer allocation bounds of the recorded-run path, from the schedule
// up to one whole explored run. Allocation counts do not depend on the host,
// so each bound is exact where it is zero. Race instrumentation adds
// allocations of its own: under -race the counts are measured and logged,
// and only the bounds are skipped.

// allocBound fails the test when allocs exceeds limit, except under -race.
func allocBound(t *testing.T, what string, allocs, limit float64) {
	t.Helper()
	if raceEnabled {
		t.Logf("%s: %.1f allocations (bound %.0f not checked under -race)", what, allocs, limit)
		return
	}
	if allocs > limit {
		t.Errorf("%s allocated %.1f objects; want <= %.0f", what, allocs, limit)
	}
}

// TestScheduleNextAllocBound: granting a step allocates nothing, whether
// the grant comes from the explorer's run record (replaying a forced prefix,
// then round-robin), a fresh replay schedule, or a fresh round-robin
// schedule.
func TestScheduleNextAllocBound(t *testing.T) {
	prefix := []sim.PID{2, 0, 1, 1, 3}
	enabled := sim.SetOf(0, 1, 2)
	const steps = 64
	rec := &runRecord{}
	allocBound(t, "run record: 64 grants", testing.AllocsPerRun(100, func() {
		rec.reset(prefix)
		for i := 0; i < steps; i++ {
			rec.Next(sim.Time(i+1), enabled)
		}
	}), 0)
	if !rec.sched.Diverged() || len(rec.granted) != steps {
		t.Fatalf("run record: diverged=%v after %d grants; want a divergence at the disabled p4 and %d grants", rec.sched.Diverged(), len(rec.granted), steps)
	}
	allocBound(t, "fresh replay schedule: 64 grants", testing.AllocsPerRun(100, func() {
		s := sim.FixedSchedule{Prefix: prefix}
		for i := 0; i < steps; i++ {
			s.Next(sim.Time(i+1), enabled)
		}
	}), 0)
	allocBound(t, "fresh round-robin schedule: 64 grants", testing.AllocsPerRun(100, func() {
		s := sim.RoundRobin()
		for i := 0; i < steps; i++ {
			s.Next(sim.Time(i+1), enabled)
		}
	}), 0)
}

// TestInternAllocBound: interning a key the log already holds allocates
// nothing, and the first recorded accesses of fresh objects whose keys the
// log holds — the same register, array cell, snapshot positions and
// consensus object in the next run of an exploration — allocate only the
// snapshot's per-position ID table. The fresh objects get the IDs their
// keys were given before.
func TestInternAllocBound(t *testing.T) {
	log := sim.NewAccessLog()
	keys := []sim.ObjKey{
		sim.KeyOf("D"),
		sim.NameOf("D").Key(sim.ObjRound).WithRound(3),
		sim.NameOf("nconv").Key(sim.ObjConverge).WithRound(1).WithSub(0, 2).WithPart(1).WithCell(2),
	}
	for _, k := range keys {
		log.Intern(k)
	}
	allocBound(t, "interning seen keys", testing.AllocsPerRun(100, func() {
		for _, k := range keys {
			log.Intern(k)
		}
	}), 0)

	type objects struct {
		reg  *memory.Register[int64]
		arr  *memory.Array[int64]
		snap memory.Snapshot[int64]
		cons *memory.ConsensusObject
	}
	const runs = 50
	fresh := make([]objects, runs+2)
	for i := range fresh {
		fresh[i] = objects{
			reg:  memory.NewRegister[int64](sim.KeyOf("D")),
			arr:  memory.NewArray[int64](sim.KeyOf("R"), 3),
			snap: memory.NewAtomicSnapshot[int64](sim.NameOf("A").Key(sim.ObjGladiator).WithRound(1).WithSub(1, 2), 3),
			cons: memory.NewConsensusObject(sim.KeyOf("C"), 2),
		}
	}
	var op memory.SnapOp[int64]
	scan := make([]memory.Opt[int64], 0, 3)
	touch := func(o objects) {
		log.Reset()
		log.BeginStep()
		o.reg.DirectWrite(log, 1)
		o.arr.DirectWrite(log, 2, 5)
		o.snap.DirectUpdate(log, &op, 1, 7)
		scan, _ = o.snap.DirectScan(log, &op, scan[:0])
		o.cons.DirectPropose(log, 0, 9)
		log.EndStep(0)
	}
	touch(fresh[0])
	_, first := log.Step(0)
	want := append([]sim.Access(nil), first...)
	next := 1
	allocBound(t, "first accesses of fresh objects with seen keys", testing.AllocsPerRun(runs, func() {
		touch(fresh[next])
		next++
	}), 1)
	if _, got := log.Step(0); !slices.Equal(got, want) {
		t.Errorf("fresh objects recorded %v, want the first run's %v", got, want)
	}
}

// TestOutputTraceObserveAllocBound: the extraction's output trace, which
// observes every step of every extract-omega run, compares the outputs in
// place.
func TestOutputTraceObserveAllocBound(t *testing.T) {
	sys := ExtractOmegaSystem(3)
	pattern := sim.FailFree(3)
	inst := sys.Instantiate(pattern, sys.Oracles(pattern, SwitchPlan{})[0])
	tm := sim.Time(0)
	allocBound(t, "OutputTrace.Observe: 64 steps", testing.AllocsPerRun(100, func() {
		for i := 0; i < 64; i++ {
			tm++
			inst.Observe(tm)
		}
	}), 0)
}

// TestJoinSpliceAllocBound: caching a tail copies it into the join cache's
// arenas, at less than one allocation per cached tail once amortized over
// the arenas' and the map's growth, and once the arenas hold a tail,
// splicing it into a joined run's log and grant buffer allocates nothing.
func TestJoinSpliceAllocBound(t *testing.T) {
	const horizon = 4
	log := sim.NewAccessLog()
	a, b := log.Intern(sim.KeyOf("a")), log.Intern(sim.KeyOf("b"))
	var granted []sim.PID
	for i := 0; i < 12; i++ {
		p := sim.PID(i % 3)
		log.BeginStep()
		log.Record(a, sim.AccessRead)
		if i%2 == 0 {
			log.Record(b, sim.AccessWrite)
		}
		log.EndStep(p)
		granted = append(granted, p)
	}
	c := newJoinCache(1 << 20)
	key := joinKey{digest: 1, rr: -1}
	if !c.put(key, log, granted, horizon, 12, false) {
		t.Fatal("put refused the first entry")
	}
	next := key
	allocBound(t, "caching a tail", testing.AllocsPerRun(200, func() {
		next.digest++
		c.put(next, log, granted, horizon, 12, false)
	}), 1)
	ent, ok := c.get(key)
	if !ok {
		t.Fatal("get missed the entry just put")
	}
	want := log.Steps()
	buf := make([]sim.PID, 0, 16)
	splice := func() {
		log.Reset()
		for i := 0; i < horizon; i++ {
			log.BeginStep()
			log.EndStep(granted[i])
		}
		buf = c.splice(ent, log, append(buf[:0], granted[:horizon]...))
	}
	splice()
	allocBound(t, "join splice", testing.AllocsPerRun(100, splice), 0)
	if log.Steps() != want || len(buf) != len(granted) {
		t.Fatalf("spliced run has %d steps and %d grants, want %d and %d", log.Steps(), len(buf), want, len(granted))
	}
	for i := horizon; i < want; i++ {
		// Even steps read a and write b, odd steps only read a.
		p, accs := log.Step(i)
		if p != granted[i] || len(accs) != 2-i%2 {
			t.Fatalf("spliced step %d = %v %v", i, p, accs)
		}
	}
}

// TestRecordedRunAllocBound bounds what one recorded explorer run allocates
// on a fixed fig1 n=3 configuration with a flipping history, search
// included: the configuration's whole source-DPOR search (1,270 runs),
// divided by its runs. The bound is about 1.2× the 61.0 measured when it
// was set.
func TestRecordedRunAllocBound(t *testing.T) {
	const label = "failure-free(n=3)/U={p1,p3} pre[{p1}<14]"
	cfg := Config{System: Fig1System(3), MaxDepth: 12, Budget: 2048, SwitchBudget: 1}.withDefaults()
	var job Job
	for _, j := range enumerateJobs(cfg) {
		if j.Label() == label {
			job = j
		}
	}
	if job.Label() != label {
		t.Fatalf("no configuration %s", label)
	}
	e := &explorer{cfg: cfg, seen: make(map[string]bool)}
	var runs int64
	allocs := testing.AllocsPerRun(2, func() {
		runs = e.sourceConfig(job.Pattern, job.Oracle).runs
	})
	if runs != 1270 {
		t.Fatalf("%s explored %d runs, want 1270", label, runs)
	}
	allocBound(t, "one recorded fig1 n=3 run", allocs/float64(runs), 73)
}
