package fleet

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"weakestfd/internal/explore"
	"weakestfd/internal/sim"
)

// TestMain doubles as the worker executable: fleet tests re-exec the test
// binary with WEAKESTFD_FLEET_TEST_MODE set, turning the child into a
// protocol worker (or a crash stand-in) instead of a test run.
func TestMain(m *testing.M) {
	switch os.Getenv("WEAKESTFD_FLEET_TEST_MODE") {
	case "":
		os.Exit(m.Run())
	case "worker":
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	case "die-now":
		os.Exit(1)
	case "die-once":
		// Crash the first worker right after its first progress frame,
		// while it holds a shard, and behave on respawn: the deterministic
		// worker-death recovery scenario.
		marker := os.Getenv("WEAKESTFD_FLEET_TEST_MARKER")
		var out io.Writer = os.Stdout
		if _, err := os.Stat(marker); err != nil {
			out = dieAfterProgress{w: os.Stdout, marker: marker}
		}
		if err := WorkerMain(os.Stdin, out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	default:
		fmt.Fprintln(os.Stderr, "unknown WEAKESTFD_FLEET_TEST_MODE")
		os.Exit(2)
	}
}

// dieAfterProgress passes a worker's output through to w and, once a
// progress frame has been written in full, writes the marker file and exits
// the process. The coordinator then still reads the frame, and the worker
// dies holding the frame's shard. The worker flushes every frame in one
// write.
type dieAfterProgress struct {
	w      io.Writer
	marker string
}

func (d dieAfterProgress) Write(p []byte) (int, error) {
	n, err := d.w.Write(p)
	if err == nil && bytes.Contains(p, []byte(`"type":"progress"`)) {
		os.WriteFile(d.marker, []byte("died"), 0o644)
		os.Exit(1)
	}
	return n, err
}

// workerCmd re-execs this test binary in the given worker mode.
func workerCmd(t *testing.T, mode string) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("WEAKESTFD_FLEET_TEST_MODE", mode)
	return []string{exe}
}

// garbledSpec is a sweep with a violation in every configuration —
// exercising result merging, violation dedup/sort and artifact transport —
// with MaxViolations lifted so the budget never couples configurations
// (the regime where fleet == single-process exactly).
func garbledSpec() Spec {
	return Spec{
		System: "fig1-garbled-decide", N: 2, F: 1,
		CrashTimes: []int64{0}, MaxDepth: 12, Budget: 1024,
		MaxViolations: 1 << 20, Workers: 2,
	}
}

// singleProcess runs the spec's sweep in-process as the equality oracle.
func singleProcess(t *testing.T, spec Spec) *explore.Result {
	t.Helper()
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 1
	return explore.Explore(cfg)
}

// assertResultsEqual compares everything a sweep claims except wall-clock.
func assertResultsEqual(t *testing.T, fleet, single *explore.Result) {
	t.Helper()
	if fleet.System != single.System || fleet.Engine != single.Engine {
		t.Errorf("identity differs: %s/%s vs %s/%s", fleet.System, fleet.Engine, single.System, single.Engine)
	}
	if fleet.Configs != single.Configs || fleet.Runs != single.Runs ||
		fleet.Pruned != single.Pruned || fleet.Joined != single.Joined ||
		fleet.SettledRuns != single.SettledRuns || fleet.MaxSteps != single.MaxSteps {
		t.Errorf("counters differ:\n fleet:  configs=%d runs=%d pruned=%d joined=%d settled=%d maxsteps=%d\n single: configs=%d runs=%d pruned=%d joined=%d settled=%d maxsteps=%d",
			fleet.Configs, fleet.Runs, fleet.Pruned, fleet.Joined, fleet.SettledRuns, fleet.MaxSteps,
			single.Configs, single.Runs, single.Pruned, single.Joined, single.SettledRuns, single.MaxSteps)
	}
	if fleet.Truncated != single.Truncated || fleet.StateCapped != single.StateCapped ||
		fleet.DepthLimited != single.DepthLimited {
		t.Errorf("flags differ: fleet {%v %v %v} vs single {%v %v %v}",
			fleet.Truncated, fleet.StateCapped, fleet.DepthLimited,
			single.Truncated, single.StateCapped, single.DepthLimited)
	}
	fk, sk := violationKeys(fleet), violationKeys(single)
	if !reflect.DeepEqual(fk, sk) {
		t.Errorf("violation sets differ:\n fleet:  %v\n single: %v", fk, sk)
	}
}

func violationKeys(r *explore.Result) []string {
	out := make([]string, 0, len(r.Violations))
	for _, v := range r.Violations {
		out = append(out, v.Pattern+"|"+v.Oracle+"|"+v.Property)
	}
	return out
}

func TestFleetEqualsSingleProcess(t *testing.T) {
	spec := garbledSpec()
	single := singleProcess(t, spec)
	if len(single.Violations) < 2 {
		t.Fatalf("oracle sweep found %d violations, want >= 2 to exercise merging", len(single.Violations))
	}
	sum, err := Run(Options{
		Spec:      spec,
		Procs:     2,
		WorkerCmd: workerCmd(t, "worker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, sum.Result, single)
	if sum.ExecutedJobs != sum.Jobs || sum.ResumedJobs != 0 {
		t.Errorf("fresh run executed %d of %d jobs, resumed %d", sum.ExecutedJobs, sum.Jobs, sum.ResumedJobs)
	}
	// Per-shard determinism: a second fleet pass is byte-identical in
	// everything but timing — the 1-CPU stand-in for the multi-core
	// speedup acceptance check.
	again, err := Run(Options{Spec: spec, Procs: 2, WorkerCmd: workerCmd(t, "worker")})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, again.Result, sum.Result)
}

// TestFleetFullGridEqualsSingleProcess is the acceptance sweep: the fig1
// n=4 full-E_3 grid under -procs 8 must produce the identical violation
// set, run count and joined count as single-process Explore, and both must
// match the pinned counts of `fdlab explore -system fig1 -n 4 -max-depth 11
// -crash-times 0,3`.
func TestFleetFullGridEqualsSingleProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second n=4 full-grid sweep skipped under -short; the full lane runs it")
	}
	spec := Spec{
		System: "fig1", N: 4, F: 3,
		CrashTimes: []int64{0, 3}, MaxDepth: 11,
		MaxViolations: 1 << 20, Workers: 1,
	}
	single := singleProcess(t, spec)
	got := [5]int64{int64(single.Configs), single.Runs, single.Joined, single.Pruned, single.MaxSteps}
	if want := [5]int64{910, 161784, 72016, 409192, 80}; got != want {
		t.Errorf("fig1 n=4 configs/runs/joined/pruned/longest run = %v, want %v", got, want)
	}
	sum, err := Run(Options{
		Spec:      spec,
		Procs:     8,
		WorkerCmd: workerCmd(t, "worker"),
	})
	if err != nil {
		t.Fatal(err)
	}
	assertResultsEqual(t, sum.Result, single)
	if len(sum.Result.Violations) != 0 {
		t.Errorf("fig1 n=4 grid found violations: %v", sum.Result.Violations)
	}
	t.Logf("n=4 grid: %d jobs, %d shards, %d steals, %d runs (%d joined), fleet %dms wall vs single %dms",
		sum.Jobs, sum.Shards, sum.Steals, sum.Result.Runs, sum.Result.Joined, sum.WallMS, single.ElapsedMS)
}

// TestFleetKillResume kills the coordinator at an exact frontier (the
// afterCheckpoint seam) and asserts the resumed run re-runs only the
// incomplete shards and still merges to the single-process result.
func TestFleetKillResume(t *testing.T) {
	spec := garbledSpec()
	single := singleProcess(t, spec)
	path := filepath.Join(t.TempDir(), "fleet.json")

	killAfter := 2
	_, err := Run(Options{
		Spec:           spec,
		Procs:          2,
		WorkerCmd:      workerCmd(t, "worker"),
		CheckpointPath: path,
		afterCheckpoint: func(completed int) error {
			if completed >= killAfter {
				return fmt.Errorf("injected kill after %d shards", completed)
			}
			return nil
		},
	})
	if err == nil {
		t.Fatal("injected kill did not abort the run")
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint unreadable after kill: %v", err)
	}
	if len(cp.Shards) < killAfter {
		t.Fatalf("checkpoint records %d shards, want >= %d at the kill point", len(cp.Shards), killAfter)
	}
	killed := cp.doneJobs()
	if killed == 0 || killed >= cp.Jobs {
		t.Fatalf("kill frontier covers %d of %d jobs; the test needs a genuine mid-sweep kill", killed, cp.Jobs)
	}

	sum, err := Run(Options{
		Spec:           spec,
		Procs:          2,
		WorkerCmd:      workerCmd(t, "worker"),
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ResumedJobs != killed {
		t.Errorf("resume credited %d checkpointed jobs, checkpoint had %d", sum.ResumedJobs, killed)
	}
	if sum.ExecutedJobs != sum.Jobs-killed {
		t.Errorf("resume executed %d jobs, want exactly the %d incomplete ones", sum.ExecutedJobs, sum.Jobs-killed)
	}
	assertResultsEqual(t, sum.Result, single)

	// Resuming the now-complete checkpoint runs nothing at all.
	done, err := Run(Options{
		Spec:           spec,
		Procs:          2,
		WorkerCmd:      workerCmd(t, "worker"),
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.ExecutedJobs != 0 || done.Workers != 0 {
		t.Errorf("complete checkpoint still executed %d jobs on %d workers", done.ExecutedJobs, done.Workers)
	}
	assertResultsEqual(t, done.Result, single)
}

// TestFleetResumeIgnoresTornCheckpoint simulates a coordinator killed
// inside WriteCheckpoint, after its temp file was partly written and before
// the rename: the intact checkpoint holds the older frontier, and a stray
// .fleet-checkpoint-* file beside it holds a truncated newer one. Resume
// must load the intact frontier, finish the sweep, and merge to the
// single-process result.
func TestFleetResumeIgnoresTornCheckpoint(t *testing.T) {
	spec := garbledSpec()
	single := singleProcess(t, spec)
	dir := t.TempDir()
	path := filepath.Join(dir, "fleet.json")

	var frontiers [][]byte
	_, err := Run(Options{
		Spec:           spec,
		Procs:          2,
		WorkerCmd:      workerCmd(t, "worker"),
		CheckpointPath: path,
		afterCheckpoint: func(completed int) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			frontiers = append(frontiers, data)
			if completed >= 2 {
				return fmt.Errorf("injected kill after %d shards", completed)
			}
			return nil
		},
	})
	if err == nil || len(frontiers) != 2 {
		t.Fatalf("injected kill: err %v after %d checkpoints, want an abort after 2", err, len(frontiers))
	}
	intact, newer := frontiers[0], frontiers[1]
	if err := os.WriteFile(path, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".fleet-checkpoint-1234567"), newer[:len(newer)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}

	sum, err := Run(Options{
		Spec:           spec,
		Procs:          2,
		WorkerCmd:      workerCmd(t, "worker"),
		CheckpointPath: path,
		Resume:         true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ResumedJobs != cp.doneJobs() || sum.ExecutedJobs != sum.Jobs-cp.doneJobs() {
		t.Errorf("resume credited %d and executed %d of %d jobs; the intact checkpoint covers %d",
			sum.ResumedJobs, sum.ExecutedJobs, sum.Jobs, cp.doneJobs())
	}
	assertResultsEqual(t, sum.Result, single)
}

func TestFleetResumeRefusesForeignCheckpoint(t *testing.T) {
	spec := garbledSpec()
	path := filepath.Join(t.TempDir(), "fleet.json")
	other := spec
	other.MaxDepth = 20
	cfg, err := other.Config()
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteCheckpoint(path, &Checkpoint{
		Schema: CheckpointSchema, Spec: other, SpecKey: other.Key(),
		Jobs: len(explore.EnumerateJobs(cfg)),
	}); err != nil {
		t.Fatal(err)
	}
	_, err = Run(Options{
		Spec: spec, Procs: 1, WorkerCmd: workerCmd(t, "worker"),
		CheckpointPath: path, Resume: true,
	})
	if err == nil {
		t.Fatal("resume accepted a checkpoint from a different sweep")
	}
}

// TestFleetWorkerDeathRecovery kills the only worker right after its first
// progress frame reaches the coordinator, so the worker dies holding a
// shard with a job finished; the coordinator must requeue the shard,
// respawn, and still converge to the single-process result.
func TestFleetWorkerDeathRecovery(t *testing.T) {
	spec := garbledSpec()
	single := singleProcess(t, spec)
	marker := filepath.Join(t.TempDir(), "died")
	t.Setenv("WEAKESTFD_FLEET_TEST_MARKER", marker)
	var lines []string
	sum, err := Run(Options{
		Spec:       spec,
		Procs:      1,
		WorkerCmd:  workerCmd(t, "die-once"),
		OnProgress: func(line string) { lines = append(lines, line) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, statErr := os.Stat(marker); statErr != nil {
		t.Fatal("the worker never died; the recovery path was not exercised")
	}
	if sum.Workers < 2 {
		t.Errorf("launched %d workers, want the dead one plus a respawn", sum.Workers)
	}
	requeued := false
	for _, l := range lines {
		requeued = requeued || strings.Contains(l, "requeued jobs")
	}
	if !requeued {
		t.Errorf("no progress line reports requeued jobs; the worker died holding no shard:\n%s", strings.Join(lines, "\n"))
	}
	assertResultsEqual(t, sum.Result, single)
}

func TestFleetAbortsWhenWorkersKeepDying(t *testing.T) {
	_, err := Run(Options{
		Spec:      garbledSpec(),
		Procs:     1,
		WorkerCmd: workerCmd(t, "die-now"),
	})
	if err == nil {
		t.Fatal("a fleet whose workers always crash reported success")
	}
}

// TestWorkerProtocol drives WorkerMain directly over pipes: spec/ready
// handshake, a shard assignment, a mid-shard narrow with its yield, and
// the done frame covering exactly the kept span.
func TestWorkerProtocol(t *testing.T) {
	spec := garbledSpec()
	spec.Workers = 1 // sequential claims make the narrow outcome precise
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	jobs := len(explore.EnumerateJobs(cfg))
	if jobs < 3 {
		t.Fatalf("spec enumerates %d jobs, want >= 3", jobs)
	}

	inR, inW := io.Pipe()
	outR, outW := io.Pipe()
	workerErr := make(chan error, 1)
	go func() { workerErr <- WorkerMain(inR, outW) }()
	r := bufio.NewReader(outR)

	if err := writeFrame(inW, &message{Type: "spec", Spec: &spec}); err != nil {
		t.Fatal(err)
	}
	ready, err := readFrame(r)
	if err != nil || ready.Type != "ready" || ready.Jobs != jobs {
		t.Fatalf("handshake = %+v, %v; want ready with %d jobs", ready, err, jobs)
	}

	if err := writeFrame(inW, &message{Type: "shard", Shard: 7, Lo: 0, Hi: jobs}); err != nil {
		t.Fatal(err)
	}
	// After the first progress frame at least one job is claimed; narrowing
	// to 1 must clamp to the claim frontier, never below it.
	first, err := readFrame(r)
	if err != nil || first.Type != "progress" || first.Shard != 7 {
		t.Fatalf("first frame = %+v, %v; want progress for shard 7", first, err)
	}
	if err := writeFrame(inW, &message{Type: "narrow", Shard: 7, Hi: 1}); err != nil {
		t.Fatal(err)
	}

	// The yield (from the main loop) and the done (from the shard
	// supervisor) race onto the pipe: drain until both arrive, in any
	// order, or the worker blocks writing the one we stopped reading.
	yieldHi, doneLo, doneHi := -2, 0, 0
	var doneResult *explore.Result
	for doneResult == nil || yieldHi == -2 {
		m, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		switch m.Type {
		case "progress":
		case "yield":
			yieldHi = m.Hi
		case "done":
			doneLo, doneHi, doneResult = m.Lo, m.Hi, m.Result
		default:
			t.Fatalf("unexpected frame %q", m.Type)
		}
	}
	if yieldHi == -1 {
		// The shard drained before the narrow landed; nothing was stolen.
		if doneHi != jobs {
			t.Errorf("shard finished pre-narrow but done covers [%d,%d) of %d jobs", doneLo, doneHi, jobs)
		}
	} else {
		if yieldHi < 1 || yieldHi > jobs {
			t.Errorf("yield bound %d outside [1,%d]", yieldHi, jobs)
		}
		if doneHi != yieldHi {
			t.Errorf("done covers [%d,%d), yield promised [0,%d)", doneLo, doneHi, yieldHi)
		}
	}
	if doneLo != 0 || doneResult.Configs != doneHi-doneLo {
		t.Errorf("done result has %d configs for span [%d,%d)", doneResult.Configs, doneLo, doneHi)
	}

	if err := writeFrame(inW, &message{Type: "exit"}); err != nil {
		t.Fatal(err)
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("worker exited with %v", err)
	}
}

func TestProtoRoundTrip(t *testing.T) {
	spec := garbledSpec()
	msgs := []*message{
		{Type: "spec", Spec: &spec},
		{Type: "shard", Shard: 3, Lo: 10, Hi: 20},
		{Type: "progress", Shard: 3, Lo: 11, Name: "fig1/failure-free(n=2)/stable", Runs: 42},
		{Type: "done", Shard: 3, Lo: 10, Hi: 20, Result: &explore.Result{System: "fig1", Engine: "source+hash", Configs: 10}},
	}
	var buf fakePipe
	for _, m := range msgs {
		if err := writeFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	for _, want := range msgs {
		got, err := readFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip drifted:\n got  %+v\n want %+v", got, want)
		}
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Errorf("trailing read = %v, want io.EOF", err)
	}

	buf.data = []byte("not-a-frame 12\n{}\n")
	if _, err := readFrame(bufio.NewReader(&buf)); err == nil {
		t.Error("readFrame accepted a frame with the wrong magic")
	}
	_ = sim.Time(0)
}

// TestReadFrameRejectsMalformed feeds readFrame one corrupt frame per
// framing rule: each must fail with an error that names what is wrong.
func TestReadFrameRejectsMalformed(t *testing.T) {
	tests := []struct {
		name, frame, want string
	}{
		{"header without length", protoMagic + "\n{}\n", "bad frame header"},
		{"empty length", protoMagic + " \n{}\n", `bad frame length ""`},
		{"non-numeric length", protoMagic + " two\n{}\n", `bad frame length "two"`},
		{"negative length", protoMagic + " -2\n{}\n", `bad frame length "-2"`},
		{"length over maxFrame", fmt.Sprintf("%s %d\n{}\n", protoMagic, maxFrame+1), fmt.Sprintf(`bad frame length "%d"`, maxFrame+1)},
		{"payload shorter than declared", protoMagic + " 10\n{}\n", "reading 10-byte frame: unexpected EOF"},
		{"missing newline terminator", protoMagic + " 2\n{}X", "not newline-terminated"},
		{"non-JSON payload", protoMagic + " 5\nhello\n", "decoding frame"},
		{"previous protocol revision", "fdfleet2 2\n{}\n", `bad frame header "fdfleet2 2" (want "fdfleet3"`},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			m, err := readFrame(bufio.NewReader(strings.NewReader(tt.frame)))
			if err == nil {
				t.Fatalf("readFrame accepted %q as %+v", tt.frame, m)
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("readFrame(%q) = %q, want an error containing %q", tt.frame, err, tt.want)
			}
		})
	}
}

// fakePipe is an in-memory io.ReadWriter for protocol tests.
type fakePipe struct{ data []byte }

func (p *fakePipe) Write(b []byte) (int, error) { p.data = append(p.data, b...); return len(b), nil }
func (p *fakePipe) Read(b []byte) (int, error) {
	if len(p.data) == 0 {
		return 0, io.EOF
	}
	n := copy(b, p.data)
	p.data = p.data[n:]
	return n, nil
}
