package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed normalisation. On the reference host (README.md) the speed of
// a core changes by up to 1.8× within seconds as other tenants load the
// shared cores, and CPU time moves with wall time, so raw unit times spread
// more between runs than any bound a regression check can use. A fixed
// reference kernel that calls no program code and allocates nothing runs
// in short slices between a unit's operations. Its speed over the unit is
// the host's speed over the unit, and the end-to-end times are scaled by
// refSliceNS over the measured nanoseconds per slice: they read as on the
// reference host when it is quiet. The slices' own time is taken out of
// the unit's wall and CPU time first.

const (
	// probeEvery is the least work between two slices.
	probeEvery = 20 * time.Millisecond
	// sliceIters kernel iterations make one slice, about 1 ms.
	sliceIters = 60000
	// refSliceNS is one slice interleaved with a workload on the reference
	// host when it is quiet, so that a scaled time reads about as the clock
	// would then. Back to back, a quiet slice takes about 1.0 ms; between
	// a workload's operations it takes longer, since it starts on the
	// caches and predictors the workload left behind.
	refSliceNS = 1200000
	// bracketTime is how long a fleet unit samples before and after.
	bracketTime = 40 * time.Millisecond
)

// kernel is the reference work: xorshift, a small table and a small map,
// with data-dependent branches. Its map is filled at construction, so a
// slice allocates nothing and never triggers the collector.
type kernel struct {
	x   uint64
	tab [512]uint32
	m   map[uint32]uint32
	acc uint32
}

func newKernel() *kernel {
	k := &kernel{x: 0x9E3779B97F4A7C15, m: make(map[uint32]uint32, 64)}
	for i := uint32(0); i < 64; i++ {
		k.m[i] = i
	}
	return k
}

func (k *kernel) spin(n int) {
	for i := 0; i < n; i++ {
		k.x ^= k.x << 13
		k.x ^= k.x >> 7
		k.x ^= k.x << 17
		x := k.x
		j := uint32(x) & 511
		k.tab[j] += uint32(x >> 32)
		if x&7 == 0 {
			k.m[j&63] += k.tab[j]
		} else {
			k.acc += k.m[uint32(x>>9)&63]
		}
		switch x & 3 {
		case 0:
			k.acc ^= k.tab[(j+1)&511]
		case 1:
			k.acc += j
		case 2:
			k.acc -= k.tab[j^5]
		}
	}
}

// hostProbe samples the host's speed during one unit. A nil probe samples
// nothing and reads factor 1: traced runs report raw times.
type hostProbe struct {
	k    *kernel
	last time.Time
	// slices and sliceNS are the slices run and their summed time.
	slices, sliceNS int64
	// spentWall and spentCPU are what the sampling cost the unit.
	spentWall, spentCPU time.Duration
	// marks are the samples in order, each with the number of operations
	// the unit had recorded before it.
	marks []mark
}

type mark struct {
	ns  float64 // mean slice time of the sample
	ops int
}

func newHostProbe(k *kernel) *hostProbe { return &hostProbe{k: k, last: time.Now()} }

// tick runs one slice when probeEvery has passed since the last. Workloads
// call it between operations, after an operation's end is taken, with the
// number of operations recorded so far.
func (p *hostProbe) tick(ops int) {
	if p == nil || time.Since(p.last) < probeEvery {
		return
	}
	p.slice(ops)
}

func (p *hostProbe) slice(ops int) {
	d := p.run()
	p.marks = append(p.marks, mark{float64(d), ops})
	p.spentWall += d
	p.spentCPU += d
}

func (p *hostProbe) run() time.Duration {
	start := time.Now()
	p.k.spin(sliceIters)
	p.last = time.Now()
	d := p.last.Sub(start)
	p.slices++
	p.sliceNS += int64(d)
	return d
}

// bracket samples every CPU at once for bracketTime: the fleet's work runs
// in worker processes on all of them, where no slice can be interleaved.
func (p *hostProbe) bracket(ops int) {
	if p == nil {
		return
	}
	n := runtime.NumCPU()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	start := time.Now()
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q := newHostProbe(newKernel())
			for time.Since(start) < bracketTime {
				q.spentCPU += q.run()
			}
			mu.Lock()
			p.slices += q.slices
			p.sliceNS += q.sliceNS
			p.spentCPU += q.spentCPU
			mu.Unlock()
		}()
	}
	wg.Wait()
	p.spentWall += time.Since(start)
	p.last = time.Now()
	p.marks = append(p.marks, mark{float64(p.sliceNS) / float64(p.slices), ops})
}

// scaleOps scales every operation latency by the samples just before and
// just after it, not by the unit's mean: within a unit the host's speed
// changes, and latencies of different operations that met different
// speeds would otherwise trade places in the quantiles. The unit's first
// and last samples bracket all its operations.
func (p *hostProbe) scaleOps(ops []float64) {
	if p == nil {
		return
	}
	k := 0
	for j := range ops {
		// marks[k] is the last sample before operation j, marks[k+1] the
		// first after it.
		for k+1 < len(p.marks) && p.marks[k+1].ops <= j {
			k++
		}
		next := p.marks[min(k+1, len(p.marks)-1)]
		ops[j] *= refSliceNS / ((p.marks[k].ns + next.ns) / 2)
	}
}

// factor is refSliceNS over the mean slice: below 1 on a slow host, 1 for
// a nil probe or one that ran no slice.
func (p *hostProbe) factor() float64 {
	if p == nil || p.slices == 0 {
		return 1
	}
	return refSliceNS / (float64(p.sliceNS) / float64(p.slices))
}
