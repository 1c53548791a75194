package main

import (
	"testing"

	"weakestfd/internal/explore"
)

// TestTracedSweepMatchesUntraced pins that the tracer's wrappers only
// watch: a traced sweep of fig1 n=3 at switch budget 1 returns the untraced
// Result, and its layer totals agree with that Result exactly.
func TestTracedSweepMatchesUntraced(t *testing.T) {
	cfg := explore.Config{System: explore.Fig1System(3), MaxDepth: 12, Budget: 2048, SwitchBudget: 1, Workers: 1}
	plain := explore.Explore(cfg)

	tr := newTracer()
	traced := cfg
	traced.System = tr.system(cfg.System)
	traced.OnConfig = tr.configDone
	tr.begin("fig1/n=3")
	got := explore.Explore(traced)

	if g, w := resultCounts(got), resultCounts(plain); g != w {
		t.Fatalf("traced sweep: %s\nuntraced sweep: %s", g, w)
	}

	var tot layerTotals
	configs := 0
	for _, s := range tr.spans {
		if s.Kind != kindConfig {
			continue
		}
		configs++
		tot.add(s.Layers)
		if self := s.ns() - s.Layers.InstantiateNS - s.Layers.RunNS - s.Layers.CheckNS; self < 0 {
			t.Errorf("config %s: layer spans exceed the config span by %dns", s.Name, -self)
		}
	}
	if configs != plain.Configs {
		t.Errorf("%d config spans, want %d", configs, plain.Configs)
	}
	// A clean sweep instantiates once per run (joined runs included) and
	// checks every property of every run that was not joined.
	if tot.Instantiates != plain.Runs {
		t.Errorf("%d Instantiate calls, want one per run: %d", tot.Instantiates, plain.Runs)
	}
	if want := (plain.Runs - plain.Joined) * int64(len(cfg.System.Properties())); tot.Checks != want {
		t.Errorf("%d property checks, want %d", tot.Checks, want)
	}
	if tot.Steps != tot.ReportSteps || tot.Steps == 0 {
		t.Errorf("%d machine steps counted, runs report %d", tot.Steps, tot.ReportSteps)
	}
}
