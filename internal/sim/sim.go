package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// PID identifies a process. The paper writes p1..p_{n+1}; we use 0-based IDs
// 0..N-1. PIDs must be < MaxProcs.
type PID int

// MaxProcs bounds the system size so that process sets fit in a Set bitmask.
const MaxProcs = 64

// Time is the logical time of the run: the index of an atomic step. The
// first granted step happens at Time 1.
type Time int64

// NoCrash is the crash time of a correct process (it never crashes).
const NoCrash Time = math.MaxInt64

// Value is an application input/output value (a proposal or decision in
// agreement problems). The protocols in this module only compare values and
// take minima, so a totally ordered integer domain loses no generality.
type Value int64

// Oracle is a failure detector history H: Value(p, t) is the output of the
// failure detector module of process p at time t (paper Section 3.2).
// Implementations must be pure functions of (p, t), or depend only on the
// state of the run they belong to, which a single runner thread drives.
type Oracle interface {
	Value(p PID, t Time) any
}

// String implements fmt.Stringer.
func (p PID) String() string { return fmt.Sprintf("p%d", int(p)+1) }

// Set is a set of processes, represented as a bitmask. It is a value type:
// all operations return new sets.
type Set uint64

// EmptySet is the set with no members.
const EmptySet Set = 0

// SetOf builds a set from the given members.
func SetOf(pids ...PID) Set {
	var s Set
	for _, p := range pids {
		s = s.Add(p)
	}
	return s
}

// FullSet returns the set {0, …, n-1} of all n processes.
func FullSet(n int) Set {
	if n < 0 || n > MaxProcs {
		panic(fmt.Sprintf("sim: FullSet(%d) out of range", n))
	}
	if n == MaxProcs {
		return ^Set(0)
	}
	return Set(1)<<uint(n) - 1
}

// Add returns s ∪ {p}.
func (s Set) Add(p PID) Set {
	checkPID(p)
	return s | 1<<uint(p)
}

// Remove returns s − {p}.
func (s Set) Remove(p PID) Set {
	checkPID(p)
	return s &^ (1 << uint(p))
}

// Has reports whether p ∈ s.
func (s Set) Has(p PID) bool {
	checkPID(p)
	return s&(1<<uint(p)) != 0
}

// Len returns |s|.
func (s Set) Len() int { return bits.OnesCount64(uint64(s)) }

// IsEmpty reports whether s = ∅.
func (s Set) IsEmpty() bool { return s == 0 }

// Union returns s ∪ t.
func (s Set) Union(t Set) Set { return s | t }

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set { return s & t }

// Minus returns s − t.
func (s Set) Minus(t Set) Set { return s &^ t }

// SubsetOf reports whether s ⊆ t.
func (s Set) SubsetOf(t Set) bool { return s&^t == 0 }

// Complement returns Π − s where Π = {0, …, n-1}.
func (s Set) Complement(n int) Set { return FullSet(n) &^ s }

// Members returns the members of s in increasing PID order.
func (s Set) Members() []PID {
	return s.MembersAppend(make([]PID, 0, s.Len()))
}

// MembersAppend appends the members of s to dst in increasing PID order and
// returns the extended slice. It is the non-allocating variant of Members
// for hot loops: pass a scratch slice truncated to dst[:0] to reuse its
// backing array.
func (s Set) MembersAppend(dst []PID) []PID {
	for t := s; t != 0; t &= t - 1 {
		dst = append(dst, lowest(t))
	}
	return dst
}

// Nth returns the i-th smallest member of s (0-based). It panics unless
// 0 <= i < s.Len(). Schedules use it to pick a member by index without
// materializing the member slice. It walks s a byte at a time and looks the
// member up in nthInByte, so a set of at most eight processes costs one
// table read, whatever i is.
func (s Set) Nth(i int) PID {
	if uint(i) >= uint(s.Len()) {
		panic("sim: Set.Nth out of range")
	}
	for base := 0; ; base += 8 {
		b := uint8(s >> base)
		c := bits.OnesCount8(b)
		if i < c {
			return PID(base + int(nthInByte[b][i]))
		}
		i -= c
	}
}

// nthInByte[b][k] is the position of the k-th lowest set bit of byte b;
// entries past b's population count are unused.
var nthInByte = func() (t [256][8]uint8) {
	for b := range t {
		k := 0
		for bit := uint8(0); bit < 8; bit++ {
			if b>>bit&1 != 0 {
				t[b][k] = bit
				k++
			}
		}
	}
	return t
}()

// Min returns the smallest PID in s. It panics on the empty set.
func (s Set) Min() PID {
	if s == 0 {
		panic("sim: Min of empty Set")
	}
	return lowest(s)
}

// String renders the set in the paper's notation, e.g. {p1,p3}.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range s.Members() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.String())
	}
	b.WriteByte('}')
	return b.String()
}

func lowest(s Set) PID {
	if s == 0 {
		panic("sim: lowest of empty Set")
	}
	return PID(bits.TrailingZeros64(uint64(s)))
}

func checkPID(p PID) {
	if p < 0 || p >= MaxProcs {
		panic(fmt.Sprintf("sim: PID %d out of range", int(p)))
	}
}
