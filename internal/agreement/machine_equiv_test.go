package agreement

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

// The baseline algorithms' step machines, pinned to the goroutine-per-process
// reference engine the simulator used to carry: each test folds every case's
// JSON-encoded Report and error kind into a sha256 in grid order, and the
// expected digests were recorded while both engines still existed and
// produced identical Reports. See internal/core/machine_equiv_test.go for
// the protocol counterparts.

// reportPin accumulates the grid digest of one equivalence test.
type reportPin struct {
	h     hash.Hash
	cases int
}

func newReportPin() *reportPin { return &reportPin{h: sha256.New()} }

func (p *reportPin) add(t *testing.T, rep *sim.Report, err error) {
	t.Helper()
	b, jerr := json.Marshal(rep)
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

// check compares the digest with want once every case of the grid ran.
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

func equivProposals(n int) []sim.Value {
	out := make([]sim.Value, n)
	for i := range out {
		out[i] = sim.Value(10 + i)
	}
	return out
}

func runAll(n int, cfg sim.Config, machineOf func(i int) sim.StepMachine) (*sim.Report, error) {
	machines := make([]sim.StepMachine, n)
	for i := range machines {
		machines[i] = machineOf(i)
	}
	return sim.RunMachines(cfg, machines)
}

func TestMachineEquivalenceBaselines(t *testing.T) {
	const n = 5
	pattern := sim.CrashPattern(n, map[sim.PID]sim.Time{1: 30})
	algos := []struct {
		name string
		mk   func(seed int64) func(i int) sim.StepMachine
	}{
		{"omega-consensus", func(seed int64) func(int) sim.StepMachine {
			c := NewOmegaConsensus(n, fd.NewOmega(pattern, 100, seed), converge.UseAtomic)
			return func(i int) sim.StepMachine { return c.Machine(equivProposals(n)[i]) }
		}},
		{"omegan-setagreement", func(seed int64) func(int) sim.StepMachine {
			a := NewOmegaNSetAgreement(n, fd.NewOmegaF(pattern, n-1, 100, seed), converge.UseAtomic)
			return func(i int) sim.StepMachine { return a.Machine(equivProposals(n)[i]) }
		}},
		{"boosted-consensus", func(seed int64) func(int) sim.StepMachine {
			b := NewBoostedConsensus(n, fd.NewOmegaF(pattern, n-1, 100, seed), converge.UseAtomic)
			return func(i int) sim.StepMachine { return b.Machine(equivProposals(n)[i]) }
		}},
	}
	schedules := []struct {
		name string
		mk   func(seed int64) sim.Schedule
	}{
		{"roundrobin", func(int64) sim.Schedule { return sim.RoundRobin() }},
		{"random", sim.NewRandom},
	}
	pin := newReportPin()
	for _, al := range algos {
		for _, sc := range schedules {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", al.name, sc.name, seed), func(t *testing.T) {
					cfg := sim.Config{Pattern: pattern, Schedule: sc.mk(seed), Budget: 1 << 21}
					rep, err := runAll(n, cfg, al.mk(seed))
					pin.add(t, rep, err)
				})
			}
		}
	}
	pin.check(t, 3*2*4, "daa0e96be3e6dbd189405206058359faa7ee9b386d4c83f5d6499922cb6ac653")
}

// TestMachineEquivalenceAsyncLivelock pins the budget-exhaustion path: the
// FD-free attempt under round-robin never terminates, and the exhausted run
// (Steps, StepsBy, Crashed bookkeeping) must match the reference.
func TestMachineEquivalenceAsyncLivelock(t *testing.T) {
	const n = 4
	a := NewAsyncAttempt(n, converge.UseAtomic)
	cfg := sim.Config{Pattern: sim.FailFree(n), Schedule: sim.RoundRobin(), Budget: 20_000}
	rep, err := runAll(n, cfg, func(i int) sim.StepMachine { return a.Machine(equivProposals(n)[i]) })
	if err == nil || !rep.BudgetExhausted {
		t.Fatalf("expected livelock, got err=%v", err)
	}
	pin := newReportPin()
	pin.add(t, rep, err)
	pin.check(t, 1, "1a8a872776ea1bc682bf92be062f87d4317ac010a3045b05759990751ee9dd2d")
}
