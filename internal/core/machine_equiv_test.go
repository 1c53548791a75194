package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"testing"

	"weakestfd/internal/converge"
	"weakestfd/internal/fd"
	"weakestfd/internal/sim"
)

// The equivalence suite pins the step machines to the goroutine-per-process
// reference engine the simulator used to carry. Each test walks an unchanged
// grid of protocols, schedules and failure patterns and folds every case's
// JSON-encoded Report (every field, including DecidedAt, StepsBy and the
// Crashed bookkeeping of budget-stopped runs) and its error kind into a
// sha256, in grid order. The expected digests were recorded while both
// engines still existed and produced identical Reports on every case.

// reportPin accumulates the grid digest of one equivalence test.
type reportPin struct {
	h     hash.Hash
	cases int
}

func newReportPin() *reportPin { return &reportPin{h: sha256.New()} }

func (p *reportPin) add(t *testing.T, outcome any, err error) {
	t.Helper()
	b, jerr := json.Marshal(outcome)
	if jerr != nil {
		t.Fatal(jerr)
	}
	kind := "ok"
	if errors.Is(err, sim.ErrBudgetExhausted) {
		kind = "budget"
	} else if err != nil {
		kind = "error"
	}
	fmt.Fprintf(p.h, "%s|%s\n", b, kind)
	p.cases++
}

// check compares the digest with want once every case of the grid ran (a
// -run filter that selects a subset skips the comparison).
func (p *reportPin) check(t *testing.T, total int, want string) {
	t.Helper()
	if p.cases != total {
		t.Logf("ran %d of %d cases; digest not compared", p.cases, total)
		return
	}
	if got := hex.EncodeToString(p.h.Sum(nil)); got != want {
		t.Fatalf("grid digest changed:\n got  %s\n want %s", got, want)
	}
}

// schedFactory builds a fresh schedule per run; schedules are stateful.
type schedFactory struct {
	name string
	mk   func(seed int64) sim.Schedule
}

func schedules() []schedFactory {
	return []schedFactory{
		{"roundrobin", func(int64) sim.Schedule { return sim.RoundRobin() }},
		{"random", sim.NewRandom},
		{"evsync", func(seed int64) sim.Schedule { return sim.EventuallySynchronous(200, 8, seed) }},
	}
}

type namedPattern struct {
	name string
	p    sim.Pattern
}

func proposalsFor(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = sim.Value(100 + i)
	}
	return out
}

func TestMachineEquivalenceFig1(t *testing.T) {
	patterns := []struct {
		name string
		mk   func(n int) sim.Pattern
	}{
		{"failfree", sim.FailFree},
		{"onecrash", func(n int) sim.Pattern {
			return sim.CrashPattern(n, map[sim.PID]sim.Time{1: 30})
		}},
		{"waitfree", func(n int) sim.Pattern {
			crashes := make(map[sim.PID]sim.Time, n-1)
			for i := 1; i < n; i++ {
				crashes[sim.PID(i)] = sim.Time(9 * i)
			}
			return sim.CrashPattern(n, crashes)
		}},
	}
	pin := newReportPin()
	for _, n := range []int{3, 5, 7} {
		for _, pat := range patterns {
			for _, sf := range schedules() {
				for _, ts := range []sim.Time{0, 150} {
					for seed := int64(0); seed < 3; seed++ {
						name := fmt.Sprintf("n%d/%s/%s/ts%d/seed%d", n, pat.name, sf.name, ts, seed)
						t.Run(name, func(t *testing.T) {
							pattern := pat.mk(n)
							h := Upsilon(n).History(pattern, ts, seed)
							g := NewFig1(n, h, converge.UseAtomic)
							machines := make([]sim.StepMachine, n)
							for i := range machines {
								machines[i] = g.Machine(proposalsFor(n)[i])
							}
							rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sf.mk(seed), Budget: 1 << 22}, machines)
							pin.add(t, rep, err)
						})
					}
				}
			}
		}
	}
	pin.check(t, 3*3*3*2*3, "33e3f1d04447e1ad08b17b9650909546842ec48db5e4c4e70428ed6af3238b5e")
}

func TestMachineEquivalenceFig2(t *testing.T) {
	pin := newReportPin()
	for _, tc := range []struct{ n, f, crashes int }{{4, 1, 0}, {4, 2, 2}, {6, 2, 1}, {6, 5, 3}} {
		for _, sf := range schedules() {
			for seed := int64(0); seed < 3; seed++ {
				name := fmt.Sprintf("n%d/f%d/crash%d/%s/seed%d", tc.n, tc.f, tc.crashes, sf.name, seed)
				t.Run(name, func(t *testing.T) {
					crashes := make(map[sim.PID]sim.Time, tc.crashes)
					for i := 0; i < tc.crashes; i++ {
						crashes[sim.PID(i)] = sim.Time(13 * (i + 1))
					}
					pattern := sim.CrashPattern(tc.n, crashes)
					h := UpsilonF(tc.n, tc.f).History(pattern, 150, seed)
					g := NewFig2(tc.n, tc.f, h, converge.UseAtomic)
					machines := make([]sim.StepMachine, tc.n)
					for i := range machines {
						machines[i] = g.Machine(proposalsFor(tc.n)[i])
					}
					rep, err := sim.RunMachines(sim.Config{Pattern: pattern, Schedule: sf.mk(seed), Budget: 1 << 22}, machines)
					pin.add(t, rep, err)
				})
			}
		}
	}
	pin.check(t, 4*3*3, "77e1203518bdde59472abd5608c258ae161c2b4af3eacac113cd22956ab61c73")
}

// TestMachineEquivalenceExtraction pins the Figure 3 reduction, including
// the emulated-output evolution (sampled after every step through StopWhen,
// exactly as ExtractUpsilon wires it).
func TestMachineEquivalenceExtraction(t *testing.T) {
	const n = 5
	type source struct {
		name string
		mk   func(pattern sim.Pattern, seed int64) (sim.Oracle, Phi)
	}
	sources := []source{
		{"omega", func(p sim.Pattern, seed int64) (sim.Oracle, Phi) {
			return fd.NewOmega(p, 150, seed), PhiOmega(n)
		}},
		{"omegaN", func(p sim.Pattern, seed int64) (sim.Oracle, Phi) {
			return fd.NewOmegaF(p, n-1, 150, seed), PhiOmegaF(n)
		}},
		{"evP", func(p sim.Pattern, seed int64) (sim.Oracle, Phi) {
			return fd.NewStableEvPerfect(p, 150, seed), PhiStableEvPerfect(n)
		}},
	}
	patterns := []namedPattern{
		{"failfree", sim.FailFree(n)},
		{"onecrash", sim.CrashPattern(n, map[sim.PID]sim.Time{2: 40})},
	}
	pin := newReportPin()
	for _, src := range sources {
		for _, pat := range patterns {
			for _, sf := range schedules() {
				for seed := int64(0); seed < 2; seed++ {
					name := fmt.Sprintf("%s/%s/%s/seed%d", src.name, pat.name, sf.name, seed)
					t.Run(name, func(t *testing.T) {
						oracle, phi := src.mk(pat.p, seed)
						ex := NewExtraction(n, oracle, phi)
						var outputs [][]sim.Set
						cfg := sim.Config{
							Pattern:  pat.p,
							Schedule: sf.mk(seed),
							Budget:   6000,
							StopWhen: func(sim.Time) bool {
								out := make([]sim.Set, n)
								for i := range out {
									out[i] = ex.OutputAt(sim.PID(i))
								}
								outputs = append(outputs, out)
								return false
							},
						}
						machines := make([]sim.StepMachine, n)
						for i := range machines {
							machines[i] = ex.Machine()
						}
						rep, err := sim.RunMachines(cfg, machines)
						pin.add(t, struct {
							Report  *sim.Report
							Outputs [][]sim.Set
						}{rep, outputs}, err)
					})
				}
			}
		}
	}
	pin.check(t, 3*2*3*2, "35f120b4e4ab16bb1fc66076d67d5f61a25cd1bbd4f0d365d46efc52de0324bb")
}

// TestMachineEquivalenceComposed pins the two-task composition (Figure 3
// reduction + Figure 1 protocol) on RunTaskMachines, covering the
// task-rotation logic.
func TestMachineEquivalenceComposed(t *testing.T) {
	const n = 5
	patterns := []namedPattern{
		{"failfree", sim.FailFree(n)},
		{"onecrash", sim.CrashPattern(n, map[sim.PID]sim.Time{2: 40})},
	}
	pin := newReportPin()
	for _, pat := range patterns {
		for _, sf := range schedules() {
			for seed := int64(0); seed < 2; seed++ {
				name := fmt.Sprintf("%s/%s/seed%d", pat.name, sf.name, seed)
				t.Run(name, func(t *testing.T) {
					oracle := fd.NewOmega(pat.p, 120, seed)
					c := NewComposed(n, oracle, PhiOmega(n), converge.UseAtomic)
					cfg := sim.Config{Pattern: pat.p, Schedule: sf.mk(seed), Budget: 1 << 22}
					rep, err := sim.RunTaskMachines(cfg, c.MachineTaskSets(proposalsFor(n)))
					pin.add(t, rep, err)
				})
			}
		}
	}
	pin.check(t, 2*3*2, "9759293e337330465187b97e5abbf76583f2cb4517ba2bb196b6492defc58e58")
}

// TestMachineEquivalenceTimed pins the oracle-free composition (heartbeat
// Υ implementation + Figure 1) under the eventually synchronous schedule.
func TestMachineEquivalenceTimed(t *testing.T) {
	const n = 4
	patterns := []namedPattern{
		{"failfree", sim.FailFree(n)},
		{"onecrash", sim.CrashPattern(n, map[sim.PID]sim.Time{1: 300})},
	}
	pin := newReportPin()
	for _, pat := range patterns {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("%s/seed%d", pat.name, seed)
			t.Run(name, func(t *testing.T) {
				c := NewTimedComposed(n, 4, converge.UseAtomic)
				cfg := sim.Config{
					Pattern:  pat.p,
					Schedule: sim.EventuallySynchronous(800, 8, seed),
					Budget:   1 << 22,
				}
				rep, err := sim.RunTaskMachines(cfg, c.MachineTaskSets(proposalsFor(n)))
				pin.add(t, rep, err)
			})
		}
	}
	pin.check(t, 2*3, "15171d9241910205fabf8409ce3c3574ca1d752e681b104949e399a1aa0de21a")
}
