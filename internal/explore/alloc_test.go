package explore

import (
	"runtime"
	"slices"
	"testing"

	"weakestfd/internal/check"
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

// TestExtractionRunAllocBound: an unrecorded extraction run allocates
// nothing per step — each process records its output changes as it writes
// them, and the random schedule draws in place — so a run of 6,000 steps,
// its Finish included, allocates exactly what a run of 600 does.
func TestExtractionRunAllocBound(t *testing.T) {
	sys := ExtractOmegaSystem(3)
	pattern := sim.FailFree(3)
	oracle := sys.Oracles(pattern, SwitchPlan{})[0]
	run := func(budget int64) float64 {
		return testing.AllocsPerRun(20, func() {
			inst := sys.Instantiate(pattern, oracle)
			rep, _ := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sim.NewRandom(1), Budget: budget}, inst.Machines)
			if rep.Steps != budget {
				t.Fatalf("extraction run took %d steps; want its budget %d", rep.Steps, budget)
			}
			inst.Finish(&Run{Report: rep})
		})
	}
	short, long := run(600), run(6000)
	if raceEnabled {
		t.Logf("extraction run: %.1f allocations at budget 600, %.1f at 6,000 (not compared under -race)", short, long)
		return
	}
	if long != short {
		t.Errorf("extraction run allocated %.1f objects at budget 6,000 and %.1f at 600; want equal", long, short)
	}
}

// fpPair is a two-word register value with its own state fingerprint.
type fpPair struct {
	v  sim.Value
	ts int64
}

func (p fpPair) StateFP() uint64 { return uint64(p.v)*0x100000001b3 ^ uint64(p.ts) }

// TestStoppedDigestWriteAllocBound: fingerprinting a written value boxes it,
// which costs a two-word struct an allocation, but once the join probe has
// stopped the log's digest a register write records its access alone and
// allocates nothing.
func TestStoppedDigestWriteAllocBound(t *testing.T) {
	log := sim.NewAccessLog()
	log.EnableDigest()
	reg := memory.NewRegister[fpPair](sim.KeyOf("R"))
	write := func(stop bool) func() {
		return func() {
			log.Reset()
			if stop {
				log.StopDigest()
			}
			log.BeginStep()
			reg.DirectWrite(log, fpPair{v: 7, ts: 9})
			log.EndStep(0)
		}
	}
	write(false)()
	if on := testing.AllocsPerRun(100, write(false)); on == 0 && !raceEnabled {
		t.Errorf("a digested two-word write allocated nothing; the bound below measures nothing")
	}
	allocBound(t, "register write after StopDigest", testing.AllocsPerRun(100, write(true)), 0)
}

// TestCheckAllocBound: the specification checks run on every explored run
// allocate nothing when the report passes them.
func TestCheckAllocBound(t *testing.T) {
	pattern := sim.CrashPattern(3, map[sim.PID]sim.Time{2: 5})
	proposals := canonicalProposals(3)
	rep := &sim.Report{Decided: map[sim.PID]sim.Value{0: proposals[0], 1: proposals[1]}}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"AtMostK", func() error { return check.AtMostK(rep, 2) }},
		{"Validity", func() error { return check.Validity(rep, proposals) }},
		{"TerminationOfCorrect", func() error { return check.TerminationOfCorrect(rep, pattern) }},
	} {
		if err := c.run(); err != nil {
			t.Fatalf("%s on a passing report: %v", c.name, err)
		}
		allocBound(t, c.name, testing.AllocsPerRun(100, func() { _ = c.run() }), 0)
	}
}

// tailLog records a 12-step run of three processes for the join cache
// tests: even steps read a and write b, odd steps only read a. It returns
// the log, the run's grants and each process's last step index.
func tailLog() (*sim.AccessLog, []sim.PID, [dporMaxProcs]int32) {
	log := sim.NewAccessLog()
	a, b := log.Intern(sim.KeyOf("a")), log.Intern(sim.KeyOf("b"))
	var granted []sim.PID
	var last [dporMaxProcs]int32
	for p := range last {
		last[p] = -1
	}
	for i := 0; i < 12; i++ {
		p := sim.PID(i % 3)
		log.BeginStep()
		log.Record(a, sim.AccessRead)
		if i%2 == 0 {
			log.Record(b, sim.AccessWrite)
		}
		log.EndStep(p)
		granted = append(granted, p)
		last[p] = int32(i)
	}
	return log, granted, last
}

// TestJoinSpliceAllocBound: caching a tail copies it into the join cache's
// arenas, at less than one allocation per cached tail once amortized over
// the arenas' and the map's growth, and once the arenas hold a tail,
// reading it step by step into a joined run's log, as the race analysis
// does, allocates nothing.
func TestJoinSpliceAllocBound(t *testing.T) {
	const horizon = 4
	log, granted, last := tailLog()
	c := newJoinCache(1 << 20)
	defer c.release()
	key := joinKey{digest: 1, rr: -1}
	if !c.put(key, log, &last, horizon, 12, false) {
		t.Fatal("put refused the first entry")
	}
	next := key
	allocBound(t, "caching a tail", testing.AllocsPerRun(200, func() {
		next.digest++
		c.put(next, log, &last, horizon, 12, false)
	}), 1)
	ent, ok := c.get(key)
	if !ok {
		t.Fatal("get missed the entry just put")
	}
	if want := [dporMaxProcs]int32{9, 10, 11, -1, -1, -1, -1, -1}; ent.last != want {
		t.Errorf("entry's last steps = %v, want %v", ent.last, want)
	}
	want := log.Steps()
	read := func() {
		log.Reset()
		for i := 0; i < horizon; i++ {
			log.BeginStep()
			log.EndStep(granted[i])
		}
		for k := 0; k < want-horizon; k++ {
			c.readStep(&ent, k, log)
		}
	}
	read()
	allocBound(t, "reading a cached tail", testing.AllocsPerRun(100, read), 0)
	if log.Steps() != want {
		t.Fatalf("joined run has %d steps, want %d", log.Steps(), want)
	}
	for i := horizon; i < want; i++ {
		p, accs := log.Step(i)
		if p != granted[i] || len(accs) != 2-i%2 {
			t.Fatalf("tail step %d = %v %v", i, p, accs)
		}
	}
}

// TestJoinCacheRecycled: a cache back from the pool holds no entry of the
// search it served before and is not capped, and caching the same tails
// into it again allocates nothing.
func TestJoinCacheRecycled(t *testing.T) {
	// The pool hands a cache back to the P that released it.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const horizon = 4
	log, _, last := tailLog()
	keys := make([]joinKey, 8)
	for i := range keys {
		keys[i] = joinKey{digest: uint64(i + 1), rr: -1}
	}
	fill := func(c *joinCache) {
		for _, k := range keys {
			c.put(k, log, &last, horizon, 12, false)
		}
	}
	var c *joinCache
	for attempt := 0; ; attempt++ {
		used := newJoinCache(len(keys) - 1)
		fill(used)
		if !used.capped {
			t.Fatal("a cache refusing an entry is not capped")
		}
		used.release()
		if c = newJoinCache(1 << 20); c == used {
			break
		}
		// Under the race detector the pool drops a share of what it is given.
		c.release()
		if attempt == 100 {
			t.Fatal("the pool never handed a released cache back")
		}
	}
	for _, k := range keys {
		if _, ok := c.get(k); ok {
			t.Errorf("recycled cache still holds key %v", k)
		}
	}
	if c.capped || len(c.tailPID) != 0 || len(c.tailAccEnd) != 0 || len(c.accs) != 0 {
		t.Errorf("recycled cache: capped=%v, arenas %d/%d/%d long; want uncapped and empty",
			c.capped, len(c.tailPID), len(c.tailAccEnd), len(c.accs))
	}
	fill(c)
	c.release()
	allocBound(t, "caching the same tails into a recycled cache", testing.AllocsPerRun(20, func() {
		c := newJoinCache(1 << 20)
		fill(c)
		c.release()
	}), 0)
}

// TestRecordedRunAllocBound bounds what one recorded explorer run allocates
// on a fixed fig1 n=3 configuration with a flipping history, search
// included: the configuration's whole source-DPOR search (1,270 runs),
// divided by its runs. The bound is about 1.2× the 61.0 measured when it
// was set.
func TestRecordedRunAllocBound(t *testing.T) {
	const label = "failure-free(n=3)/U={p1,p3} pre[{p1}<14]"
	cfg := Config{System: Fig1System(3), MaxDepth: 12, Budget: 2048, SwitchBudget: 1}.withDefaults()
	job := configJob(t, cfg, label)
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
