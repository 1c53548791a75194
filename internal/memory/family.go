package memory

import "weakestfd/internal/sim"

// Family is a lazily built family of shared objects indexed the way the
// paper indexes its per-round objects: member [r][k] with a parameter p that
// is part of its identity, so that processes with divergent detector views,
// and hence divergent parameters, use distinct objects. Member [r][k]/p is
// identified by the key base[r][k]/p.
//
// Reset keeps the members built so far as spares for the next run. After
// it, each member the run asks for anew re-arms the next spare in place, in
// the order the spares were built, and a member is built only when none is
// left; a spare that gets its old key back keeps the access-log IDs it
// cached (see Snapshot.Reset).
type Family[T any, B Maker[T]] struct {
	base sim.ObjKey
	b    B
	// members holds the members built so far: the first live are this
	// run's, the rest spares. A run touches only a few rounds, so a short
	// slice searched from its most recent end beats a map.
	members []familyMember[T]
	live    int
}

// Maker makes and re-arms the members of a Family. A family holds its
// maker by value, so a maker that carries the members' size and kind
// costs the family no allocation of its own.
type Maker[T any] interface {
	// Make returns a new member with key and parameter p.
	Make(key sim.ObjKey, p int) T
	// Rearm empties obj in place, as Make left it, and gives it key and
	// parameter p.
	Rearm(obj T, key sim.ObjKey, p int)
}

type familyMember[T any] struct {
	r, k, p int
	obj     T
}

// NewFamily returns an empty family whose members b makes under base.
func NewFamily[T any, B Maker[T]](base sim.ObjKey, b B) *Family[T, B] {
	return &Family[T, B]{base: base, b: b}
}

// At returns member [r][k]/p, re-arming a spare or building it on first
// use. The accessor takes no simulation steps: object creation is
// bookkeeping, not shared-memory communication.
func (f *Family[T, B]) At(r, k, p int) T {
	for i := f.live - 1; i >= 0; i-- {
		if m := &f.members[i]; m.r == r && m.k == k && m.p == p {
			return m.obj
		}
	}
	key := f.base.WithRound(r).WithSub(k, p)
	if f.live == len(f.members) {
		f.members = append(f.members, familyMember[T]{r: r, k: k, p: p, obj: f.b.Make(key, p)})
	} else {
		m := &f.members[f.live]
		m.r, m.k, m.p = r, k, p
		f.b.Rearm(m.obj, key, p)
	}
	f.live++
	return f.members[f.live-1].obj
}

// Reset empties the family for a new run, as NewFamily left it; its members
// stay as spares for At.
func (f *Family[T, B]) Reset() { f.live = 0 }
