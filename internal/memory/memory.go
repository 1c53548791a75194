// Package memory implements the shared objects of the paper's model:
// atomic read/write registers (the only object type its algorithms need) and
// atomic-snapshot objects, both as a one-step atomic object and as the
// classic wait-free construction from single-writer registers of Afek,
// Attiya, Dolev, Gafni, Merritt and Shavit (J. ACM 1993) — the paper's
// reference [1].
//
// Machines access the objects through the Direct* methods (direct.go): one
// register access per simulator step, one step per operation of the one-step
// snapshot (justified by [1]'s implementability result).
package memory

import "weakestfd/internal/sim"

// Opt is an optional value: registers start ⊥ and the paper's protocols
// repeatedly test registers against ⊥.
type Opt[T any] struct {
	V  T
	OK bool
}

// Some returns a present optional.
func Some[T any](v T) Opt[T] { return Opt[T]{V: v, OK: true} }

// None returns the absent optional (⊥).
func None[T any]() Opt[T] { return Opt[T]{} }

// StateFP implements sim.Fingerprinter: ⊥ is distinct from every present
// value, and present values fingerprint by their content.
func (o Opt[T]) StateFP() uint64 {
	if !o.OK {
		return noneFP
	}
	return sim.StateFP(o.V)
}

// noneFP is the fingerprint of ⊥.
const noneFP = 0x9d6e1c2b0b07a55a

// fp is StateFP for an optional that lives in a shared object: it reads the
// content in place instead of boxing it (see fingerprint).
func (o *Opt[T]) fp() uint64 {
	if !o.OK {
		return noneFP
	}
	return fingerprint(&o.V)
}

// Register is an atomic multi-reader multi-writer register holding a value
// of type T. The zero value... is not usable; construct with NewRegister so
// the register carries its identity for traces.
type Register[T any] struct {
	key sim.ObjKey
	v   T

	// oid caches the register's interned identity in the log whose
	// Serial is logSerial, so recorded runs pay the key-interning map
	// lookup once per (object, log) pair instead of once per access. Valid
	// only while logSerial matches the log in use; see Register.logID.
	oid       sim.ObjID
	logSerial uint64
}

// NewRegister returns a register identified by key, initialized to T's zero
// value.
func NewRegister[T any](key sim.ObjKey) *Register[T] {
	return &Register[T]{key: key}
}

// Reset sets the register back to T's zero value, as NewRegister left it,
// keeping its key and the ID it cached.
func (r *Register[T]) Reset() {
	var zero T
	r.v = zero
}

// rekey resets the register and gives it key; a new key drops the cached
// ID, since that ID names the old key in its log.
func (r *Register[T]) rekey(key sim.ObjKey) {
	r.Reset()
	if r.key != key {
		r.key, r.logSerial = key, 0
	}
}

// Inspect returns the register's value without taking a step. It exists for
// the benefit of schedules, stop predicates and post-run checks, all of
// which run while no process is executing; machines must not use it.
func (r *Register[T]) Inspect() T { return r.v }

// Array is a per-process array of atomic registers, R[0..n-1]: the shared
// structure used by all announcement/heartbeat patterns in the paper.
// Register i is identified by the array's key with cell i.
type Array[T any] struct {
	regs []Register[T]
}

// NewArray returns an array of n registers, each holding T's zero value.
func NewArray[T any](key sim.ObjKey, n int) *Array[T] {
	a := &Array[T]{regs: make([]Register[T], n)}
	for i := range a.regs {
		a.regs[i].key = key.WithCell(i)
	}
	return a
}

// N returns the array length.
func (a *Array[T]) N() int { return len(a.regs) }

// Reset sets every register back to T's zero value, as NewArray left it,
// keeping the keys and the IDs they cached.
func (a *Array[T]) Reset() {
	for i := range a.regs {
		a.regs[i].Reset()
	}
}

// rekey resets the array and identifies register i by key with cell i.
func (a *Array[T]) rekey(key sim.ObjKey) {
	for i := range a.regs {
		a.regs[i].rekey(key.WithCell(i))
	}
}

// At returns the i-th register.
func (a *Array[T]) At(i sim.PID) *Register[T] { return &a.regs[i] }

// Inspect returns a copy of the array contents without taking steps; for
// schedules and post-run checks only.
func (a *Array[T]) Inspect() []T {
	out := make([]T, len(a.regs))
	for i := range a.regs {
		out[i] = a.regs[i].Inspect()
	}
	return out
}
