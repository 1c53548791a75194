package sim

import "strings"

// Shared-object access observability: the seam the DPOR explorer
// (internal/explore) is built on. The step-machine engine performs exactly
// one shared-object operation per granted step; an AccessLog, when attached
// to a run through Config.AccessLog, records which objects that operation
// read and wrote. Two steps of different processes commute exactly when
// their access sets do not conflict (no common object with at least one
// write), which is the independence relation dynamic partial-order
// reduction prunes by.
//
// Objects are identified by their structural keys (ObjKey, objkey.go): the
// log interns each key to a dense ObjID in first-access order, and renders
// an object's display name only when a trace asks for it (ObjName,
// AccessString). Recording a run formats no strings.
//
// The log is strictly optional: a nil *AccessLog is the no-op default, every
// method is nil-safe, and the accessors in internal/memory guard their
// recording behind a single nil check — the lab/benchmark hot paths run with
// instrumentation compiled in but disabled at zero allocation cost
// (asserted by the zero-alloc tests in internal/sim and internal/memory).
//
// A log can also maintain a state digest (EnableDigest, StateDigest): the
// fingerprint of every object's current value and of every process's
// observations, which the explorer's join probe reads once per run, at the
// branch horizon. The probe then stops the digest (StopDigest), so writes
// past the horizon record their access without fingerprinting — and
// boxing — the value; Reset maintains it again for the next run.

// AccessKind distinguishes reads from writes of a shared object.
type AccessKind uint8

const (
	// AccessRead is a read of a shared object.
	AccessRead AccessKind = iota
	// AccessWrite is a write (or an atomic read-modify-write, which
	// conflicts like a write) of a shared object.
	AccessWrite
)

// String implements fmt.Stringer ("R"/"W").
func (k AccessKind) String() string {
	if k == AccessWrite {
		return "W"
	}
	return "R"
}

// ObjID is a log-local shared-object identity, interned from the object's
// key (ObjKey). IDs are assigned from 1, in first-access order; 0 is "never
// interned". Because interning is by key and a log's intern table survives
// Reset, the same object maps to the same ID across every run recorded into
// one log.
type ObjID int32

// Access is one shared-object access: which object, read or write.
type Access struct {
	Obj  ObjID
	Kind AccessKind
}

// stepSpan delimits one step's accesses inside the log buffer.
type stepSpan struct {
	p          PID
	start, end int32
}

// AccessLog records, per granted step, the shared-object accesses that step
// performed. The runner brackets every machine step with BeginStep/EndStep;
// the instrumented accessors in internal/memory call Record in between.
// Reset clears the recorded steps but keeps the key→ID intern table, so a
// log reused across the runs of one exploration assigns stable IDs.
type AccessLog struct {
	ids   map[ObjKey]ObjID
	keys  []ObjKey // keys[id-1] is the interned key of id
	buf   []Access
	spans []stepSpan
	start int32
	// envEnd marks the end of the current step's environment-access prefix
	// (see SealEnv): accesses in [start, envEnd) were recorded by the
	// environment — detector flip writes and boundary-guard reads the query
	// seam charges to whichever step runs at the flip's absolute time. They
	// participate in the step's span (and hence in conflict detection) but
	// are excluded from the per-process observation hash: the machine never
	// sees them, so two runs whose schedules merely charge the same flip to
	// different bystander steps must still digest equally.
	envEnd int32

	// State-digest support (EnableDigest): the incremental machinery behind
	// StateDigest, maintained only when digestOn — the plain recording path
	// stays zero-allocation. digest records EnableDigest; digestOn holds
	// from each Reset of such a log until StopDigest. objFP[id]
	// fingerprints object id's *current* value (0 = still holding its
	// initial value); fps parallels buf with the value fingerprint each
	// access observed or installed; procH[p] is process p's rolling
	// observation hash, folded once per step by EndStep.
	digest   bool
	digestOn bool
	objFP    []uint64
	fps      []uint64
	procH    []uint64
	// unkWrites salts writes recorded without a value fingerprint (plain
	// Record with AccessWrite): each gets a unique fingerprint, so digests
	// involving such objects simply never match — conservative, never
	// unsound.
	unkWrites uint64
}

// NewAccessLog returns an empty log.
func NewAccessLog() *AccessLog {
	return &AccessLog{ids: make(map[ObjKey]ObjID)}
}

// Intern returns the stable ID for an object key, assigning one on first
// use. Callers must not invoke Intern on a nil log (the accessors check
// for nil before interning).
func (l *AccessLog) Intern(key ObjKey) ObjID {
	if id, ok := l.ids[key]; ok {
		return id
	}
	l.keys = append(l.keys, key)
	id := ObjID(len(l.keys))
	l.ids[key] = id
	return id
}

// Key returns the interned key of id (the zero key for unknown IDs).
func (l *AccessLog) Key(id ObjID) ObjKey {
	if l == nil || id < 1 || int(id) > len(l.keys) {
		return ObjKey{}
	}
	return l.keys[id-1]
}

// ObjName renders the display name of id ("?" for unknown IDs).
func (l *AccessLog) ObjName(id ObjID) string {
	if l == nil || id < 1 || int(id) > len(l.keys) {
		return "?"
	}
	return l.keys[id-1].String()
}

// Record appends one access to the current step. Nil-safe no-op.
func (l *AccessLog) Record(obj ObjID, kind AccessKind) {
	if l == nil {
		return
	}
	l.buf = append(l.buf, Access{Obj: obj, Kind: kind})
	if l.digestOn {
		fp := l.objFPAt(obj)
		if kind == AccessWrite {
			// A write without a value fingerprint: install a unique one so
			// equal digests never silently merge states behind it.
			l.unkWrites++
			fp = fpMix(l.unkWrites, uint64(obj))
			l.objFP[obj] = fp
		}
		l.fps = append(l.fps, fp)
	}
}

// RecordValued appends one access carrying the fingerprint of the value the
// access installed (writes) — the digest-aware recording path the
// instrumented accessors in internal/memory use when DigestOn. For reads
// the value observed is, by definition, the object's current fingerprint,
// so readers call plain Record. Nil-safe no-op; falls back to Record when
// the digest is off.
func (l *AccessLog) RecordValued(obj ObjID, kind AccessKind, fp uint64) {
	if l == nil {
		return
	}
	l.buf = append(l.buf, Access{Obj: obj, Kind: kind})
	if l.digestOn {
		if kind == AccessWrite {
			l.objFPAt(obj)
			l.objFP[obj] = fpMix(11, fp)
		}
		l.fps = append(l.fps, fpMix(11, fp))
	}
}

// objFPAt returns object id's current value fingerprint, growing the table
// on first sight (0 = initial value, a fingerprint no RecordValued write can
// install because fpMix never returns its own seed class by construction —
// and even a collision there would only make the digest more conservative).
func (l *AccessLog) objFPAt(obj ObjID) uint64 {
	for int(obj) >= len(l.objFP) {
		l.objFP = append(l.objFP, 0)
	}
	return l.objFP[obj]
}

// EnableDigest switches on incremental state-digest maintenance for every
// subsequent run recorded into the log: Reset turns it back on after a
// StopDigest. The recording hot path pays fingerprint folds only while the
// digest is maintained.
func (l *AccessLog) EnableDigest() {
	if l == nil {
		return
	}
	l.digest = true
	l.digestOn = true
}

// StopDigest stops digest maintenance until the next Reset, once the run's
// last StateDigest has been taken: the explorer reads the digest once per
// run, at the branch horizon, and the steps after it record their accesses
// without fingerprinting the values they write. Nil-safe no-op.
func (l *AccessLog) StopDigest() {
	if l == nil {
		return
	}
	l.digestOn = false
}

// DigestOn reports whether the log maintains its state digest now; the
// instrumented write accessors consult it to decide between Record and
// RecordValued.
func (l *AccessLog) DigestOn() bool { return l != nil && l.digestOn }

// StateDigest returns the canonical hash of the simulation state reached by
// the steps recorded so far: every object's current-value fingerprint plus
// every process's rolling observation hash. Two recorded prefixes of the
// same configuration with equal digests reached (up to 64-bit hash
// collisions) identical shared state *and* identical per-process local
// states — a machine's local state is a deterministic function of its
// observation sequence, which procH hashes access by access, value by
// value, with a per-step marker so even yield steps advance it (the
// "per-process PC"). It is valid only while the digest is maintained: after
// StopDigest it reads stale fingerprints until the next Reset. See
// internal/explore/hash.go for the join argument built on top.
func (l *AccessLog) StateDigest() uint64 {
	h := fpSeed
	for id, fp := range l.objFP {
		if fp != 0 {
			h = fpMix(h, fpMix(uint64(id), fp))
		}
	}
	for p, ph := range l.procH {
		if ph != 0 {
			h = fpMix(h, fpMix(uint64(p), ph))
		}
	}
	return h
}

// AppendStep injects a step span that was not executed in this run — the
// explorer's race analysis reads the cached tail of an identical earlier
// run into a joined run's log one step at a time, as far as its walk goes:
// it stops once every process still to step is happens-after every
// branch-node step, since no later race can reach the search. Digest state
// is deliberately not advanced: joins happen at the branch horizon, after
// which no digest is taken (the explorer has stopped it there). Nil-safe
// no-op.
func (l *AccessLog) AppendStep(p PID, accs []Access) {
	if l == nil {
		return
	}
	start := int32(len(l.buf))
	l.buf = append(l.buf, accs...)
	if l.digestOn {
		for range accs {
			l.fps = append(l.fps, 0)
		}
	}
	l.spans = append(l.spans, stepSpan{p: p, start: start, end: int32(len(l.buf))})
}

// BeginStep opens a new step span; the runner calls it immediately before
// granting a machine step. Nil-safe no-op.
func (l *AccessLog) BeginStep() {
	if l == nil {
		return
	}
	l.start = int32(len(l.buf))
	l.envEnd = l.start
}

// SealEnv marks every access recorded since BeginStep as an environment
// access — charged to the step's span for conflict purposes, but not part of
// the stepping process's own observation sequence. The query seam calls it
// after recording a step's flip writes and boundary-guard reads, immediately
// before the machine step runs; EndStep then folds only the machine's own
// accesses into the process observation hash. Nil-safe no-op.
func (l *AccessLog) SealEnv() {
	if l == nil {
		return
	}
	l.envEnd = int32(len(l.buf))
}

// EndStep closes the current step span, attributing its accesses to p; the
// runner calls it immediately after the machine step returns. Nil-safe
// no-op.
func (l *AccessLog) EndStep(p PID) {
	if l == nil {
		return
	}
	l.spans = append(l.spans, stepSpan{p: p, start: l.start, end: int32(len(l.buf))})
	if l.digestOn {
		for int(p) >= len(l.procH) {
			l.procH = append(l.procH, 0)
		}
		h := l.procH[p]
		// Skip the environment-access prefix (SealEnv): flip writes and guard
		// reads are charged to the span but are not p's observations.
		for i := l.envEnd; i < int32(len(l.buf)); i++ {
			a := l.buf[i]
			h = fpMix(h, fpMix(uint64(a.Obj)<<1|uint64(a.Kind), l.fps[i]))
		}
		// Step marker: even an access-free (yield) step advances the
		// process's observation hash — the per-process program counter.
		l.procH[p] = fpMix(h, 10)
	}
}

// Reset clears the recorded steps, keeping the intern table (and hence ID
// stability) for the next run. On a log with EnableDigest it clears the
// digest and maintains it again, after a StopDigest too. Nil-safe no-op.
func (l *AccessLog) Reset() {
	if l == nil {
		return
	}
	l.buf = l.buf[:0]
	l.spans = l.spans[:0]
	l.start = 0
	l.envEnd = 0
	if l.digest {
		clear(l.objFP)
		clear(l.procH)
		l.fps = l.fps[:0]
		l.unkWrites = 0
		l.digestOn = true
	}
}

// Steps returns the number of recorded steps (0 on a nil log).
func (l *AccessLog) Steps() int {
	if l == nil {
		return 0
	}
	return len(l.spans)
}

// Step returns the recorded process and access set of step i (0-based). The
// returned slice aliases the log's buffer: copy it before the next Reset if
// it must outlive the run.
func (l *AccessLog) Step(i int) (PID, []Access) {
	s := l.spans[i]
	return s.p, l.buf[s.start:s.end]
}

// AccessString renders an access set for traces, e.g. "R(D) W(A[1])".
func (l *AccessLog) AccessString(as []Access) string {
	if len(as) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, a := range as {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(a.Kind.String())
		b.WriteByte('(')
		b.WriteString(l.ObjName(a.Obj))
		b.WriteByte(')')
	}
	return b.String()
}

// AccessesConflict reports whether two access sets conflict: some object
// appears in both with at least one write. Steps of different processes
// with non-conflicting access sets commute — executing them in either order
// yields the same shared state and the same local results.
func AccessesConflict(a, b []Access) bool {
	for _, x := range a {
		for _, y := range b {
			if x.Obj == y.Obj && (x.Kind == AccessWrite || y.Kind == AccessWrite) {
				return true
			}
		}
	}
	return false
}
