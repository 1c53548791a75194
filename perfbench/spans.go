package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// The benchmark's per-layer timing is taken from outside the program. The
// tracer wraps the explorer's public interfaces — explore.System
// (Instantiate, Properties), sim.StepMachine and explore.Property — and
// closes one span per explored configuration from explore.Config.OnConfig.
// A span starts and ends where the program calls into a wrapper.
//
// Every in-process workload explores with one lab worker, so the wrappers
// are never called concurrently and the tracer needs no locks.

// layerTotals is the work and busy time each layer spent inside one span.
type layerTotals struct {
	Instantiates  int64 `json:"instantiates,omitempty"`
	InstantiateNS int64 `json:"instantiate_ns,omitempty"`
	// RunNS is the time from Instantiate's return to the run's Finish hook:
	// the simulation with its access log, query seam and join probe.
	RunNS int64 `json:"run_ns,omitempty"`
	// Steps counts StepMachine.Step calls (for a lab simulation span, the
	// steps the simulation reported); ReportSteps sums Report.Steps of the
	// finished runs. For explored runs the two must agree.
	Steps       int64 `json:"steps,omitempty"`
	ReportSteps int64 `json:"report_steps,omitempty"`
	Checks      int64 `json:"checks,omitempty"`
	CheckNS     int64 `json:"check_ns,omitempty"`
}

func (t *layerTotals) add(o layerTotals) {
	t.Instantiates += o.Instantiates
	t.InstantiateNS += o.InstantiateNS
	t.RunNS += o.RunNS
	t.Steps += o.Steps
	t.ReportSteps += o.ReportSteps
	t.Checks += o.Checks
	t.CheckNS += o.CheckNS
}

// Span kinds. A sweep or kill span is the parent of the configuration
// spans explored inside it; a sim span is one lab simulation, its parent
// the scenario family.
const (
	kindSweep  = "sweep"
	kindKill   = "kill"
	kindConfig = "config"
	kindSim    = "sim"
)

// span is one timed interval. Configuration spans carry the layer totals
// of the calls made inside them.
type span struct {
	Kind    string      `json:"kind"`
	Name    string      `json:"name"`
	Parent  string      `json:"parent,omitempty"`
	StartNS int64       `json:"start_ns"`
	EndNS   int64       `json:"end_ns"`
	Layers  layerTotals `json:"layers"`
}

func (s span) ns() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory; writeSpans puts them in a file at the end.
type tracer struct {
	epoch    time.Time
	spans    []span
	parent   string
	cfgStart time.Time
	cur      layerTotals
	runStart time.Time

	// firstViolation is when a property check under the current parent
	// first failed (zero until then); replays counts the Instantiate calls
	// after it: the shrinker's replays plus the classifier's re-execution.
	firstViolation time.Time
	replays        int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a parent span whose configurations OnConfig closes one by
// one.
func (tr *tracer) begin(parent string) {
	tr.parent = parent
	tr.cfgStart = time.Now()
	tr.cur = layerTotals{}
	tr.firstViolation = time.Time{}
	tr.replays = 0
}

// end records the parent span opened by begin.
func (tr *tracer) end(kind string, start, end time.Time) {
	tr.record(kind, tr.parent, "", start, end, layerTotals{})
}

func (tr *tracer) record(kind, name, parent string, start, end time.Time, l layerTotals) {
	tr.spans = append(tr.spans, span{
		Kind:    kind,
		Name:    name,
		Parent:  parent,
		StartNS: int64(start.Sub(tr.epoch)),
		EndNS:   int64(end.Sub(tr.epoch)),
		Layers:  l,
	})
}

// configDone is the explore.Config.OnConfig hook: it closes the span of the
// configuration that just finished and opens the next one.
func (tr *tracer) configDone(name string, _ int64) {
	now := time.Now()
	tr.record(kindConfig, name, tr.parent, tr.cfgStart, now, tr.cur)
	tr.cur = layerTotals{}
	tr.cfgStart = now
}

// writeSpans writes every span as one JSON line to path.
func (tr *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}

// system wraps sys so that its runs and property checks are timed.
func (tr *tracer) system(sys explore.System) explore.System {
	t := &timedSystem{System: sys, tr: tr}
	for _, p := range sys.Properties() {
		t.props = append(t.props, timedProperty{Property: p, tr: tr})
	}
	return t
}

type timedSystem struct {
	explore.System
	tr    *tracer
	props []explore.Property
}

// Instantiate times the inner Instantiate, wraps every machine in a step
// counter and hooks Finish to close the run span.
func (s *timedSystem) Instantiate(pattern sim.Pattern, o explore.OracleChoice) explore.Instance {
	tr := s.tr
	start := time.Now()
	inst := s.System.Instantiate(pattern, o)
	for i, m := range inst.Machines {
		inst.Machines[i] = countedMachine{StepMachine: m, steps: &tr.cur.Steps}
	}
	for _, ts := range inst.Tasks {
		for k, m := range ts {
			ts[k] = countedMachine{StepMachine: m, steps: &tr.cur.Steps}
		}
	}
	finish := inst.Finish
	inst.Finish = func(r *explore.Run) {
		if finish != nil {
			finish(r)
		}
		tr.cur.RunNS += int64(time.Since(tr.runStart))
		if r.Report != nil {
			tr.cur.ReportSteps += r.Report.Steps
		}
	}
	tr.runStart = time.Now()
	tr.cur.Instantiates++
	tr.cur.InstantiateNS += int64(tr.runStart.Sub(start))
	if !tr.firstViolation.IsZero() {
		tr.replays++
	}
	return inst
}

// Properties returns the wrapped properties, built once per system.
func (s *timedSystem) Properties() []explore.Property { return s.props }

// countedMachine counts steps and nothing else: clock reads stay out of the
// StepMachine methods, which run once per simulated step.
type countedMachine struct {
	sim.StepMachine
	steps *int64
}

func (m countedMachine) Step(t sim.Time) sim.MachineStatus {
	*m.steps++
	return m.StepMachine.Step(t)
}

type timedProperty struct {
	explore.Property
	tr *tracer
}

func (p timedProperty) Check(r *explore.Run) error {
	start := time.Now()
	err := p.Property.Check(r)
	end := time.Now()
	p.tr.cur.Checks++
	p.tr.cur.CheckNS += int64(end.Sub(start))
	if err != nil && p.tr.firstViolation.IsZero() {
		p.tr.firstViolation = end
	}
	return err
}
