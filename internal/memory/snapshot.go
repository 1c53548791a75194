package memory

import (
	"fmt"

	"weakestfd/internal/sim"
)

// Snapshot is an atomic snapshot object with n positions (paper Section 5.3):
// Update(i, v) writes v into position i and Scan returns the contents of all
// positions, such that all scans are related by containment (each position of
// one scan is the same or a more recent write than the other's).
//
// Two implementations are provided: NewAtomicSnapshot performs each operation
// in one simulator step (justified by the implementability result of Afek et
// al., the paper's [1]), and NewAfekSnapshot is that very construction from
// single-writer registers, so that the "registers only" claim of the paper's
// algorithms can be exercised end to end.
//
// A machine drives an operation one step at a time: it repeats the same
// DirectUpdate or DirectScan call, once per step, until the call reports the
// operation done. The op argument carries the operation's progress between
// those calls; the one-step snapshot completes on the first call and never
// touches it.
type Snapshot[T any] interface {
	// N returns the number of positions.
	N() int
	// DirectUpdate performs the next atomic step of Update(i, v) and reports
	// whether the update completed. Processes only update their own position
	// in the paper's protocols, but the object does not require it.
	DirectUpdate(l *sim.AccessLog, op *SnapOp[T], i sim.PID, v T) (done bool)
	// DirectScan performs the next atomic step of a Scan. Once the scan
	// completes it appends the contents of all n positions to dst (absent
	// positions, never updated, are None) and returns the extended slice and
	// true; pass scratch[:0] to reuse a scan buffer.
	DirectScan(l *sim.AccessLog, op *SnapOp[T], dst []Opt[T]) (scan []Opt[T], done bool)
	// Reset empties every position, as the constructor left them, and
	// identifies the object by key from now on. The object keeps the IDs
	// it cached when key is its key already and drops them otherwise.
	Reset(key sim.ObjKey)
}

// SnapOp is one process's snapshot operation in flight. Its zero value is
// ready, and the one-step snapshot never touches it. An Afek et al. Update or
// Scan keeps its collects and program counter in it between register
// accesses and resets them when it completes, so one SnapOp serves every
// operation a process performs in turn.
type SnapOp[T any] struct {
	afek *afekOp[T] // allocated by the first Afek et al. operation
}

// afekOp is the state of an Afek et al. operation between its steps.
type afekOp[T any] struct {
	phase     uint8 // update: afekScan, afekReadOwn or afekWrite
	j         int   // next register of the current collect
	collected bool  // prev holds a complete collect of this scan
	prev, cur []afekCell[T]
	moved     []int    // per writer: sequence-number changes seen by this scan
	view      []Opt[T] // an update's embedded scan, once taken
	seq       int64    // an update's own sequence number, once read
}

// state returns op's Afek et al. state for n registers, allocating it on
// first use.
func (op *SnapOp[T]) state(n int) *afekOp[T] {
	if op.afek == nil || len(op.afek.cur) != n {
		op.afek = &afekOp[T]{prev: make([]afekCell[T], n), cur: make([]afekCell[T], n), moved: make([]int, n)}
	}
	return op.afek
}

// Update phases of an Afek et al. operation.
const (
	afekScan uint8 = iota
	afekReadOwn
	afekWrite
)

// NewAtomicSnapshot returns a snapshot object whose Update and Scan each
// take one atomic step. Position i is identified by key with cell i.
func NewAtomicSnapshot[T any](key sim.ObjKey, n int) Snapshot[T] {
	return &atomicSnapshot[T]{key: key, cells: make([]Opt[T], n)}
}

type atomicSnapshot[T any] struct {
	key   sim.ObjKey
	cells []Opt[T]

	// cellIDs caches the per-position interned identities in the log whose
	// Serial is logSerial; see atomicSnapshot.cellID in direct.go.
	cellIDs   []sim.ObjID
	logSerial uint64
}

func (s *atomicSnapshot[T]) N() int { return len(s.cells) }

func (s *atomicSnapshot[T]) Reset(key sim.ObjKey) {
	clear(s.cells)
	if s.key != key {
		s.key, s.logSerial = key, 0
	}
}

// afekCell is the content of one single-writer register in the Afek et al.
// construction: the value, an unbounded sequence number, and the embedded
// scan the writer performed just before this write (used for helping).
type afekCell[T any] struct {
	val  Opt[T]
	seq  int64
	view []Opt[T] // embedded scan; nil until first update
}

// NewAfekSnapshot returns a wait-free atomic snapshot implemented from
// single-writer multi-reader registers (Afek et al., J. ACM 40(4), 1993,
// unbounded-register version), one register access per step:
//
//   - Scan: repeatedly collect all registers, reading them in index order.
//     If two successive collects are identical (no sequence number
//     changed), the double collect is a valid snapshot. Otherwise a writer
//     moved; once some writer has been observed to move twice since the scan
//     began, its embedded view was taken entirely within this scan's
//     interval and is returned (helping).
//   - Update(i, v): perform an embedded scan, read register i, then write
//     (v, seq+1, scan) to it.
//
// Each collect costs n register-read steps, and an update costs a scan plus
// two steps, so operations cost O(n²) steps — the price of registers-only.
// Register i is identified by key with cell i, as position i of the one-step
// snapshot is.
func NewAfekSnapshot[T any](key sim.ObjKey, n int) Snapshot[T] {
	return &afekSnapshot[T]{regs: NewArray[afekCell[T]](key, n)}
}

type afekSnapshot[T any] struct {
	regs *Array[afekCell[T]]
}

func (s *afekSnapshot[T]) N() int { return s.regs.N() }

func (s *afekSnapshot[T]) Reset(key sim.ObjKey) { s.regs.rekey(key) }

func (s *afekSnapshot[T]) DirectUpdate(l *sim.AccessLog, op *SnapOp[T], i sim.PID, v T) bool {
	st := op.state(s.regs.N())
	switch st.phase {
	case afekScan:
		// The embedded scan escapes into register i: give it its own slice.
		if view, done := s.scanStep(l, st, nil); done {
			st.view, st.phase = view, afekReadOwn
		}
		return false
	case afekReadOwn:
		st.seq = s.regs.DirectRead(l, i).seq
		st.phase = afekWrite
		return false
	default:
		s.regs.DirectWrite(l, i, afekCell[T]{val: Some(v), seq: st.seq + 1, view: st.view})
		st.phase, st.view = afekScan, nil
		return true
	}
}

func (s *afekSnapshot[T]) DirectScan(l *sim.AccessLog, op *SnapOp[T], dst []Opt[T]) ([]Opt[T], bool) {
	return s.scanStep(l, op.state(s.regs.N()), dst)
}

// scanStep performs the next register read of a scan and, when that read
// completes a collect, compares it with the previous one; see
// NewAfekSnapshot. A nil dst receives a freshly allocated view.
func (s *afekSnapshot[T]) scanStep(l *sim.AccessLog, op *afekOp[T], dst []Opt[T]) ([]Opt[T], bool) {
	n := s.regs.N()
	op.cur[op.j] = s.regs.DirectRead(l, sim.PID(op.j))
	if op.j++; op.j < n {
		return dst, false
	}
	op.j = 0
	if !op.collected {
		op.collected = true
		op.prev, op.cur = op.cur, op.prev
		return dst, false
	}
	// Compare with the previous collect: any writer seen moving twice since
	// the scan began has an embedded view taken entirely within this scan.
	same, borrow := true, -1
	for j := range op.cur {
		if op.cur[j].seq != op.prev[j].seq {
			same = false
			if op.moved[j]++; op.moved[j] >= 2 {
				borrow = j
				break
			}
		}
	}
	if !same && borrow < 0 {
		op.prev, op.cur = op.cur, op.prev
		return dst, false
	}
	if dst == nil {
		dst = make([]Opt[T], 0, n)
	}
	if same {
		for _, c := range op.cur {
			dst = append(dst, c.val)
		}
	} else {
		dst = append(dst, op.cur[borrow].view...)
	}
	op.collected = false
	clear(op.moved)
	return dst, true
}

// CountSome returns the number of present entries in a scan result — the
// paper's "snapshot with at least n+1−f non-⊥ values" test.
func CountSome[T any](scan []Opt[T]) int {
	n := 0
	for _, c := range scan {
		if c.OK {
			n++
		}
	}
	return n
}

// ScanString renders a scan result for traces and examples.
func ScanString[T any](scan []Opt[T]) string {
	out := "["
	for i, c := range scan {
		if i > 0 {
			out += " "
		}
		if c.OK {
			out += fmt.Sprint(c.V)
		} else {
			out += "⊥"
		}
	}
	return out + "]"
}
