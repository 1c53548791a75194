package memory

import "weakestfd/internal/sim"

// Direct shared-object access for the machine runner.
//
// The machine runner (sim.RunMachines) is single-threaded and accounts the
// step itself: exactly one StepMachine.Step call runs at a time, and that
// call performs exactly one operation. Machines therefore access objects
// through the Direct* methods below, which touch the object state directly;
// atomicity comes from the runner's single-threadedness.
//
// Every Direct* accessor takes the run's *sim.AccessLog (the one the runner
// hands machines through sim.MachineContext.Log) and reports its
// (object, read|write) accesses to it, making each step's footprint on
// shared memory observable — the seam the DPOR explorer's dependency
// analysis is built on. A nil log is the no-op default: recording is guarded
// by one nil check and the disabled path allocates nothing (asserted by
// TestDirectAccessNilLogZeroAlloc).

// ID caches. Every object interns its key (sim.ObjKey) into a log on the
// first access recorded there and caches the resulting ID next to the log's
// serial (sim.AccessLog.Serial), so later accesses in the same log pay one
// comparison, and the cache keeps no finished run's log alive. An object
// recorded into a different log re-interns, so sharing an object between
// logs is safe (if wasteful). A
// fresh object whose key the log already holds (the same register in the
// next run of an exploration) gets the ID interned before, at the cost of
// one map lookup; only a snapshot allocates, for its per-position table.
// An object reset for the next run keeps its cache, and a snapshot reset
// under another key drops it (Snapshot.Reset).

// logID returns the register's identity in log l, interning its key on the
// first access recorded into l.
func (r *Register[T]) logID(l *sim.AccessLog) sim.ObjID {
	if r.logSerial != l.Serial() {
		r.oid = l.Intern(r.key)
		r.logSerial = l.Serial()
	}
	return r.oid
}

// DirectRead returns the register's value; one atomic step.
func (r *Register[T]) DirectRead(l *sim.AccessLog) T {
	if l != nil {
		l.Record(r.logID(l), sim.AccessRead)
	}
	return r.v
}

// DirectWrite sets the register's value; one atomic step. While the log
// maintains its state digest (sim.AccessLog.DigestOn) the write carries the
// new value's fingerprint, keeping the digest in sync with shared memory
// without ever re-walking the registers; otherwise it records the access
// alone.
func (r *Register[T]) DirectWrite(l *sim.AccessLog, v T) {
	r.v = v
	if l != nil {
		if id := r.logID(l); l.DigestOn() {
			l.RecordValued(id, sim.AccessWrite, fingerprint(&r.v))
		} else {
			l.Record(id, sim.AccessWrite)
		}
	}
}

// fingerprint returns sim.StateFP(*v) without boxing *v when its type
// supplies its own fingerprint: converting a pointer to an interface copies
// nothing, and v points into an object that lives on the heap already, while
// boxing a multi-word value (an Opt, a converge proposal, an extraction
// report) would allocate on every digested write. Every value types' path
// ends in the sim.StateFP case it would have taken, so the fingerprints are
// the boxed ones bit for bit.
func fingerprint[T any](v *T) uint64 {
	switch x := any(v).(type) {
	case optFingerprinter:
		return x.fp()
	case sim.Fingerprinter:
		return x.StateFP()
	}
	return sim.StateFP(*v)
}

// optFingerprinter is *Opt[T] for any T: Opt.StateFP boxes its content,
// Opt.fp does not.
type optFingerprinter interface{ fp() uint64 }

// DirectRead reads register i; one atomic step.
func (a *Array[T]) DirectRead(l *sim.AccessLog, i sim.PID) T {
	return a.regs[i].DirectRead(l)
}

// DirectWrite writes register i; one atomic step.
func (a *Array[T]) DirectWrite(l *sim.AccessLog, i sim.PID, v T) {
	a.regs[i].DirectWrite(l, v)
}

// cellID returns position i's identity in log l. Snapshot accesses are
// recorded per position (the snapshot's key with cell i), not per object:
// updates write only their own position, so updates by different processes
// commute, while a scan reads every position and conflicts with each of
// them — exactly the dependency structure the containment argument of [1]
// induces. The first access recorded into l interns every position.
func (s *atomicSnapshot[T]) cellID(l *sim.AccessLog, i int) sim.ObjID {
	if s.logSerial != l.Serial() {
		if s.cellIDs == nil {
			s.cellIDs = make([]sim.ObjID, len(s.cells))
		}
		for j := range s.cellIDs {
			s.cellIDs[j] = l.Intern(s.key.WithCell(j))
		}
		s.logSerial = l.Serial()
	}
	return s.cellIDs[i]
}

// DirectUpdate implements Snapshot in one step.
func (s *atomicSnapshot[T]) DirectUpdate(l *sim.AccessLog, _ *SnapOp[T], i sim.PID, v T) bool {
	s.cells[i] = Some(v)
	if l != nil {
		if id := s.cellID(l, int(i)); l.DigestOn() {
			l.RecordValued(id, sim.AccessWrite, s.cells[i].fp())
		} else {
			l.Record(id, sim.AccessWrite)
		}
	}
	return true
}

// DirectScan implements Snapshot in one step.
func (s *atomicSnapshot[T]) DirectScan(l *sim.AccessLog, _ *SnapOp[T], dst []Opt[T]) ([]Opt[T], bool) {
	if l != nil {
		for j := range s.cells {
			l.Record(s.cellID(l, j), sim.AccessRead)
		}
	}
	return append(dst, s.cells...), true
}

// DirectPropose submits v on behalf of process me and returns the object's
// decision (the first value ever proposed); one atomic step. It panics if
// more than m distinct processes access the object. A propose both reads and
// conditionally writes the object; it is recorded as a single write, which
// conflicts with everything a read-plus-write would.
func (c *ConsensusObject) DirectPropose(l *sim.AccessLog, me sim.PID, v sim.Value) sim.Value {
	if !c.accessors.Has(me) {
		c.accessors = c.accessors.Add(me)
		if c.accessors.Len() > c.limit {
			panic(c.key.String() + ": consensus object accessor limit exceeded")
		}
	}
	if !c.decided.OK {
		c.decided = Some(v)
	}
	if l != nil {
		if c.logSerial != l.Serial() {
			c.oid = l.Intern(c.key)
			c.logSerial = l.Serial()
		}
		// The recorded fingerprint is the object's post-propose state — the
		// first proposal wins, so a losing propose re-installs the winner's
		// fingerprint, which is exactly its write-like effect on the state.
		if l.DigestOn() {
			l.RecordValued(c.oid, sim.AccessWrite, c.decided.StateFP())
		} else {
			l.Record(c.oid, sim.AccessWrite)
		}
	}
	return c.decided.V
}
