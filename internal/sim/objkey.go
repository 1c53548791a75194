package sim

import (
	"fmt"
	"strconv"
	"sync"
)

// Typed shared-object identities. Every shared object carries an ObjKey: a
// small comparable value naming the object structurally — its family's base
// name, what kind of object it is, and the round, sub-index, parameter and
// cell indices that place it in its family. An AccessLog interns objects by
// key, so recording a run never formats a name; the rendered form
// ("nconv[1][0]/2.A[0]", "D[3]", "R[2]") is produced only for display, by
// AccessLog.ObjName and AccessLog.AccessString.

// Name is the process-wide handle of a shared-object family's base name
// ("D", "nconv", "R"): keys carry the handle instead of the string, which
// keeps them small and free of pointers. NameOf registers names on first
// use; protocol packages resolve theirs once, into package-level keys.
type Name uint16

// names is the process-wide registration table behind Name: append-only, so
// a handle never changes its string.
var names struct {
	mu  sync.Mutex
	ids map[string]Name
	all []string
}

// NameOf returns the handle of base name s, registering it on first use.
// Equal strings always yield the same handle within a process.
func NameOf(s string) Name {
	names.mu.Lock()
	defer names.mu.Unlock()
	if id, ok := names.ids[s]; ok {
		return id
	}
	if len(names.all) > int(^Name(0)) {
		panic(fmt.Sprintf("sim: more than %d shared-object base names", int(^Name(0))+1))
	}
	if names.ids == nil {
		names.ids = make(map[string]Name)
	}
	id := Name(len(names.all))
	names.all = append(names.all, s)
	names.ids[s] = id
	return id
}

// String returns the base name n stands for.
func (n Name) String() string {
	names.mu.Lock()
	defer names.mu.Unlock()
	return names.all[n]
}

// ObjKind classifies a shared object for trace analysis. Kinds carry what
// the explorer's failure-pattern classifier needs to know about an object
// without parsing its rendered name.
type ObjKind uint8

const (
	// ObjPlain is every object the kinds below do not single out.
	ObjPlain ObjKind = iota
	// ObjRound is a per-round register of an agreement protocol (D[r],
	// Stable[r]); its round is the protocol round.
	ObjRound
	// ObjConverge is a cell of a k-converge instance's snapshot objects; its
	// round is the protocol round when the instance belongs to a series.
	ObjConverge
	// ObjGladiator is a cell of Figure 2's gladiator snapshot A[r][k]/|U|;
	// its round is the protocol round.
	ObjGladiator
)

// Key parts a rendered name shows, in rendering order after the base name.
const (
	partRound uint8 = 1 << iota // [round]
	partSub                     // [sub]/param
	partSet                     // {set}, held in sub (low half) and param (high half)
	partCell                    // [cell]
	// The high nibble holds 1+p for a composite object's part p, rendered
	// ".A", ".B", … after the sub-index.
	partShift = 4
)

// ObjKey is the structural identity of a shared object. Two objects are the
// same object of a log exactly when their keys are equal. Build a key with
// KeyOf or Name.Key and extend it with the With* methods; the rendered
// name is the base name, then [round], [sub]/param, .part, {set} and [cell]
// for the parts set.
type ObjKey struct {
	kind  ObjKind
	parts uint8
	name  Name
	// round is the protocol round, sub a sub-round index and param the
	// instance parameter of a per-round family member; cell is the position
	// inside an array or snapshot. Unset parts are zero.
	round, sub, param, cell int32
}

// KeyOf returns the key of a plain object called name.
func KeyOf(name string) ObjKey { return ObjKey{name: NameOf(name)} }

// Key returns the key of the object of the given kind whose base name is n.
func (n Name) Key(kind ObjKind) ObjKey { return ObjKey{kind: kind, name: n} }

// Kind returns what kind of object k names.
func (k ObjKey) Kind() ObjKind { return k.kind }

// Round returns k's round index, reporting false when k has none.
func (k ObjKey) Round() (int, bool) { return int(k.round), k.parts&partRound != 0 }

// WithRound returns k for round r: name[r].
func (k ObjKey) WithRound(r int) ObjKey {
	k.parts |= partRound
	k.round = int32(r)
	return k
}

// WithSub returns k for sub-round i of parameter param: name[r][i]/param.
func (k ObjKey) WithSub(i, param int) ObjKey {
	k.parts |= partSub
	k.sub, k.param = int32(i), int32(param)
	return k
}

// WithPart returns part p of a composite object: name.A for p = 0, name.B
// for p = 1, and so on.
func (k ObjKey) WithPart(p int) ObjKey {
	k.parts = k.parts&(1<<partShift-1) | uint8(p+1)<<partShift
	return k
}

// WithSet returns k for process set s: name[r]{p1,p2}. The set shares its
// storage with the sub-round part, which a key never combines with it.
func (k ObjKey) WithSet(s Set) ObjKey {
	k.parts |= partSet
	k.sub, k.param = int32(uint32(s)), int32(uint32(s>>32))
	return k
}

// WithCell returns position i of the array or snapshot k names: name[i].
func (k ObjKey) WithCell(i int) ObjKey {
	k.parts |= partCell
	k.cell = int32(i)
	return k
}

// String renders the key as the object's display name.
func (k ObjKey) String() string {
	b := []byte(k.name.String())
	index := func(b []byte, i int32) []byte {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(i), 10)
		return append(b, ']')
	}
	if k.parts&partRound != 0 {
		b = index(b, k.round)
	}
	if k.parts&partSub != 0 {
		b = index(b, k.sub)
		b = append(b, '/')
		b = strconv.AppendInt(b, int64(k.param), 10)
	}
	if p := k.parts >> partShift; p != 0 {
		b = append(b, '.', 'A'+p-1)
	}
	if k.parts&partSet != 0 {
		b = append(b, Set(uint64(uint32(k.sub))|uint64(uint32(k.param))<<32).String()...)
	}
	if k.parts&partCell != 0 {
		b = index(b, k.cell)
	}
	return string(b)
}
