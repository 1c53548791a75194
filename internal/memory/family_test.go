package memory

import (
	"testing"

	"weakestfd/internal/sim"
)

// TestFamilySpares: a family builds each member on first use and returns it
// on every later use in the run; after Reset it re-arms the spares in the
// order they were built, under the new members' keys, before it builds
// another.
func TestFamilySpares(t *testing.T) {
	base := sim.NameOf("X").Key(sim.ObjConverge)
	built := 0
	f := NewFamily[*testMember](base, testMaker{built: &built})

	a, b := f.At(1, 0, 2), f.At(2, 1, 3)
	if f.At(1, 0, 2) != a || f.At(2, 1, 3) != b || built != 2 {
		t.Fatalf("a run's members were built %d times; want each once", built)
	}
	if want := base.WithRound(2).WithSub(1, 3); b.key != want || b.p != 3 {
		t.Errorf("member [2][1]/3 has key %v and parameter %d; want %v and 3", b.key, b.p, want)
	}

	f.Reset()
	c := f.At(2, 1, 3)
	if c != a || c.key != base.WithRound(2).WithSub(1, 3) || c.p != 3 {
		t.Errorf("first member after Reset = %p %v/%d; want the first spare %p re-armed as [2][1]/3", c, c.key, c.p, a)
	}
	if d := f.At(4, 0, 1); d != b || d.key != base.WithRound(4).WithSub(0, 1) {
		t.Errorf("second member after Reset = %p %v; want the second spare %p re-armed as [4][0]/1", d, d.key, b)
	}
	if e := f.At(5, 0, 1); e == a || e == b || built != 3 {
		t.Errorf("a member past the spares was not built anew (%d builds)", built)
	}
	if f.At(2, 1, 3) != a {
		t.Error("a re-armed member is not returned again in its run")
	}
}

type testMember struct {
	key sim.ObjKey
	p   int
}

// testMaker counts the members it makes.
type testMaker struct{ built *int }

func (b testMaker) Make(key sim.ObjKey, p int) *testMember {
	*b.built++
	return &testMember{key: key, p: p}
}

func (testMaker) Rearm(m *testMember, key sim.ObjKey, p int) { m.key, m.p = key, p }
