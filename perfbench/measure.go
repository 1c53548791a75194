package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime is the user plus system time of this process and of every child
// it has reaped.
func cpuTime() time.Duration {
	var self, kids syscall.Rusage
	// Getrusage fails only on an invalid "who"; both are constants.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &self)
	_ = syscall.Getrusage(syscall.RUSAGE_CHILDREN, &kids)
	tv := func(t syscall.Timeval) time.Duration {
		return time.Duration(t.Sec)*time.Second + time.Duration(t.Usec)*time.Microsecond
	}
	return tv(self.Utime) + tv(self.Stime) + tv(kids.Utime) + tv(kids.Stime)
}

// sampleChildPeaks samples the peak resident set of this process's live
// children every interval until the returned stop function is called, and
// stop returns the largest peak seen. The kernel keeps only the largest
// peak of all children ever reaped, so a fleet unit's own workers are
// watched while they live; a worker's peak only grows, so a sample misses
// at most its last interval.
func sampleChildPeaks(interval time.Duration) (stop func() int64) {
	quit := make(chan struct{})
	done := make(chan int64)
	go func() {
		var peak int64
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			peak = max(peak, childPeaksKB())
			select {
			case <-quit:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return func() int64 {
		close(quit)
		return <-done
	}
}

// childPeaksKB returns the largest peak resident set among this process's
// live children. A child that exits while it is read is skipped.
func childPeaksKB() int64 {
	var peak int64
	tasks, _ := os.ReadDir("/proc/self/task")
	for _, t := range tasks {
		kids, _ := os.ReadFile(filepath.Join("/proc/self/task", t.Name(), "children"))
		for _, pid := range strings.Fields(string(kids)) {
			if kb, err := peakRSSKBOf(filepath.Join("/proc", pid, "status")); err == nil {
				peak = max(peak, kb)
			}
		}
	}
	return peak
}

// resetPeakRSS clears the kernel's record of this process's peak resident
// set, so that peakRSSKB reads the peak since this call. Per-unit peaks
// are steadier than the process's lifetime peak: when the heap peaks
// depends on when the collector ran, and a median over units evens that
// out.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// peakRSSKB returns this process's peak resident set (VmHWM) in KiB.
func peakRSSKB() (int64, error) { return peakRSSKBOf("/proc/self/status") }

// peakRSSKBOf reads VmHWM, in KiB, from a /proc/<pid>/status file.
func peakRSSKBOf(statusPath string) (int64, error) {
	status, err := os.ReadFile(statusPath)
	if err != nil {
		return 0, fmt.Errorf("reading the peak resident set: %w", err)
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// waitChildren returns once this process has no child left. fleet.Run
// returns before its workers are reaped (a reader goroutine reaps each one
// after its pipe closes), and a child's CPU time reaches RUSAGE_CHILDREN only
// once it is reaped, so a fleet unit is not over until this returns. A child
// that exited but is not reaped yet is reaped here; the fleet's reader
// ignores the error its own wait then gets.
func waitChildren(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		var status syscall.WaitStatus
		_, err := syscall.Wait4(-1, &status, syscall.WNOHANG, nil)
		switch err {
		case syscall.ECHILD:
			return nil
		case nil, syscall.EINTR:
		default:
			return fmt.Errorf("waiting for worker processes: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker processes still running after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// runtimeCounters samples the Go runtime's cumulative allocation and CPU
// accounting; differences of two samples give allocations and the GC's
// share of CPU over an interval.
type runtimeCounters struct {
	allocs, bytes float64
	gcCPU, allCPU float64
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() runtimeCounters {
	metrics.Read(runtimeSamples)
	v := func(i int) float64 {
		switch s := runtimeSamples[i].Value; s.Kind() {
		case metrics.KindUint64:
			return float64(s.Uint64())
		case metrics.KindFloat64:
			return s.Float64()
		}
		return 0
	}
	return runtimeCounters{allocs: v(0), bytes: v(1), gcCPU: v(2), allCPU: v(3)}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{a.allocs - b.allocs, a.bytes - b.bytes, a.gcCPU - b.gcCPU, a.allCPU - b.allCPU}
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs need not be sorted. It returns 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// topShare is the share of the total that the slowest ceil(frac·n) samples
// account for.
func topShare(xs []float64, frac float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	k := int(math.Ceil(frac * float64(len(s))))
	var top, all float64
	for i, x := range s {
		all += x
		if i < k {
			top += x
		}
	}
	if all == 0 {
		return 0
	}
	return top / all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
