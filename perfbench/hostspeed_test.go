package main

import (
	"math"
	"testing"
)

// TestScaleOpsUsesSurroundingSamples pins that each operation is scaled by
// the two samples around it, not by the unit's mean.
func TestScaleOpsUsesSurroundingSamples(t *testing.T) {
	p := &hostProbe{marks: []mark{
		{ns: refSliceNS, ops: 0},     // before operations 0 and 1
		{ns: refSliceNS * 3, ops: 2}, // between 1 and 2
		{ns: refSliceNS * 5, ops: 3}, // after 2
	}}
	ops := []float64{1, 1, 1}
	p.scaleOps(ops)
	want := []float64{0.5, 0.5, 0.25}
	for i := range ops {
		if math.Abs(ops[i]-want[i]) > 1e-12 {
			t.Fatalf("scaled ops %v, want %v", ops, want)
		}
	}
	var nilProbe *hostProbe
	nilProbe.scaleOps(ops)
	if nilProbe.factor() != 1 || ops[0] != want[0] {
		t.Fatalf("a nil probe scaled: factor %v, ops %v", nilProbe.factor(), ops)
	}
}

// TestBracketSamplesEveryCPU runs the all-CPU sample, whose goroutines fold
// into one probe; run it with -race.
func TestBracketSamplesEveryCPU(t *testing.T) {
	p := newHostProbe(newKernel())
	p.bracket(0)
	p.bracket(5)
	if p.slices < 2 || len(p.marks) != 2 || p.marks[1].ops != 5 {
		t.Fatalf("%d slices, marks %v", p.slices, p.marks)
	}
	if f := p.factor(); !(f > 0) || math.IsInf(f, 0) {
		t.Fatalf("factor %v", f)
	}
	if p.spentCPU < p.spentWall/2 {
		t.Fatalf("sampling CPU %v below half its wall time %v", p.spentCPU, p.spentWall)
	}
}
