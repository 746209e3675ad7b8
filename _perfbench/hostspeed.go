package main

import (
	"runtime"
	"slices"
	"time"
)

// The host-speed reference. On a shared 2-vCPU cloud VM the memory
// system's speed drifts with the other tenants' load, in phases of
// 20–60 s that slow the simulations by up to 1.8×: longer than a run,
// so no statistic over one run can average them out. A fixed kernel that runs no program code (a sort and a run
// of map updates) slows in the same phases. Every computation-bound
// timing figure is paired with the mean of the kernel runs just before
// and just after it, and reported at the reference speed: duration ×
// refNominal / kernel time.
// A change to the program moves such a figure exactly as it moves the
// raw time; a change in host speed moves the kernel as well and cancels.
const (
	refSortLen = 150_000
	refMapOps  = 300_000
	// refNominal is about the kernel's median duration on the 2-vCPU
	// VM the bounds were set on, so reported figures read close to raw
	// ones there.
	refNominal = 22 * time.Millisecond
)

var ref struct {
	input, scratch []uint64
	m              map[uint64]uint64
	sink           uint64
}

// refKernel runs the reference kernel once and returns its wall time.
// It finishes any garbage collection first, and the kernel allocates
// nothing after its first call, so the program's heap does not reach
// into its time.
func refKernel() time.Duration {
	runtime.GC()
	start := time.Now()
	refWork()
	return time.Since(start)
}

// refWork is the kernel: a sort of a fixed input and a run of map
// updates.
func refWork() {
	if ref.input == nil {
		ref.input = make([]uint64, refSortLen)
		ref.scratch = make([]uint64, refSortLen)
		ref.m = make(map[uint64]uint64, 1<<16)
		x := uint64(88172645463325252)
		for i := range ref.input {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			ref.input[i] = x
		}
	}
	copy(ref.scratch, ref.input)
	slices.Sort(ref.scratch)
	x := uint64(1) // the same keys every call, so only the first inserts
	for i := 0; i < refMapOps; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		ref.m[x>>48] += x
	}
	ref.sink += ref.scratch[0] + uint64(len(ref.m))
}

// speedProbe runs the kernel between measured intervals. Each interval
// gets the mean of the kernel times on either side of it, which tracks
// the host's speed during the interval better than either alone.
type speedProbe struct{ last time.Duration }

func newSpeedProbe() *speedProbe { return &speedProbe{last: refKernel()} }

// next runs the kernel after an interval and returns the kernel time
// for that interval.
func (p *speedProbe) next() time.Duration {
	k := refKernel()
	mean := (p.last + k) / 2
	p.last = k
	return mean
}

// atRef scales d, measured next to a kernel run of kernel, to the
// reference speed.
func atRef(d, kernel time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(kernel))
}

// refMS is the median kernel time in ms over n runs: the host's speed at
// the time, for reading raw timings of the ledger.
func refMS(n int) float64 {
	var ms []float64
	for i := 0; i < n; i++ {
		ms = append(ms, float64(refKernel().Nanoseconds())/1e6)
	}
	return median(ms)
}
