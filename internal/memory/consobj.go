package memory

import (
	"fmt"
	"sort"

	"weakestfd/internal/sim"
)

// ConsensusObject is an m-process consensus object: DirectPropose is a
// one-step atomic operation; the first proposed value wins and every propose
// returns it. Its consensus number is m — at most m *distinct* processes may
// ever access one instance, and the object enforces that limit by panicking,
// which turns any algorithmic misuse (the subtle bug the Ωn-boosting
// literature is careful about) into an immediate test failure rather than a
// silent power upgrade.
//
// These objects are the paper's Corollary 4 comparators: solving
// (n+1)-process consensus from n-process consensus objects and registers
// requires Ωn (Guerraoui–Kuznetsov, the paper's [13]), strictly more
// failure information than the Υ that set agreement needs.
type ConsensusObject struct {
	key       sim.ObjKey
	limit     int
	decided   Opt[sim.Value]
	accessors sim.Set

	// oid caches the object's interned identity in the log whose Serial is
	// logSerial; see DirectPropose in direct.go.
	oid       sim.ObjID
	logSerial uint64
}

// NewConsensusObject returns an m-process consensus object identified by
// key.
func NewConsensusObject(key sim.ObjKey, m int) *ConsensusObject {
	if m < 1 {
		panic(fmt.Sprintf("memory: consensus object limit %d", m))
	}
	return &ConsensusObject{key: key, limit: m}
}

// Limit returns m, the object's consensus number.
func (c *ConsensusObject) Limit() int { return c.limit }

// Accessors returns the set of processes that have accessed the object; for
// post-run inspection only.
func (c *ConsensusObject) Accessors() sim.Set { return c.accessors }

// Decision returns the object's decision, if any; for inspection only.
func (c *ConsensusObject) Decision() Opt[sim.Value] { return c.decided }

// ConsFamily hands out consensus objects keyed by (round, accessor set), so
// that processes with divergent detector views use distinct objects — each
// within its own m-process access budget. Keying by the accessor set is the
// standard trick of the Ωn-boosting algorithms: |L| = m guarantees the
// object named by L is touched only by members of L.
type ConsFamily struct {
	key   sim.ObjKey
	limit int
	m     map[consKey]*ConsensusObject
}

type consKey struct {
	r int
	l sim.Set
}

// NewConsFamily builds a family of m-process consensus objects; the object
// for round r and accessor set l is identified by key[r]{l}.
func NewConsFamily(key sim.ObjKey, m int) *ConsFamily {
	return &ConsFamily{key: key, limit: m, m: make(map[consKey]*ConsensusObject)}
}

// At returns the object for round r and accessor set l (|l| must not exceed
// the family's limit), creating it on first use; no simulation steps.
func (f *ConsFamily) At(r int, l sim.Set) *ConsensusObject {
	if l.Len() > f.limit {
		panic(fmt.Sprintf("memory: accessor set %v exceeds %d-process consensus objects", l, f.limit))
	}
	key := consKey{r: r, l: l}
	obj, ok := f.m[key]
	if !ok {
		obj = NewConsensusObject(f.key.WithRound(r).WithSet(l), f.limit)
		f.m[key] = obj
	}
	return obj
}

// AllAccessorsWithinLimit verifies, post-run, that no object of the family
// was over-subscribed (defence in depth next to the per-object panic).
func (f *ConsFamily) AllAccessorsWithinLimit() error {
	keys := make([]consKey, 0, len(f.m))
	for k := range f.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].r != keys[j].r {
			return keys[i].r < keys[j].r
		}
		return keys[i].l < keys[j].l
	})
	for _, k := range keys {
		obj := f.m[k]
		if obj.Accessors().Len() > obj.Limit() {
			return fmt.Errorf("memory: %s over-subscribed: %v", obj.key, obj.Accessors())
		}
		if !obj.Accessors().SubsetOf(k.l) {
			return fmt.Errorf("memory: %s accessed by %v outside its key set %v", obj.key, obj.Accessors(), k.l)
		}
	}
	return nil
}
