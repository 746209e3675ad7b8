package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// usage is a process-wide resource reading. Differences of two
// readings bracket one measured interval.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	mallocs uint64        // cumulative heap allocations
	bytes   uint64        // cumulative heap bytes allocated
	gcCPU   float64       // cumulative GC CPU seconds
	allCPU  float64       // cumulative CPU seconds as the Go runtime counts them
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

// readUsage takes a reading. It calls runtime.ReadMemStats, which stops
// the world briefly, so take readings only between measured calls.
func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	metrics.Read(rtSamples)
	u := usage{
		wall:    time.Now(),
		cpu:     processCPU(),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
	}
	if rtSamples[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = rtSamples[0].Value.Float64()
		u.allCPU = rtSamples[1].Value.Float64()
	}
	return u
}

// delta is the resource use between two readings.
type delta struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	gcFrac  float64 // GC share of the interval's runtime-counted CPU
}

func (u usage) since(start usage) delta {
	d := delta{
		wall:    u.wall.Sub(start.wall),
		cpu:     u.cpu - start.cpu,
		mallocs: u.mallocs - start.mallocs,
		bytes:   u.bytes - start.bytes,
	}
	if all := u.allCPU - start.allCPU; all > 0 {
		d.gcFrac = (u.gcCPU - start.gcCPU) / all
	}
	return d
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size so far.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// median of xs, the mean of the two middle values when len(xs) is even
// (NaN when empty); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the nearest-rank q-quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// setupDue reports whether the next of total set-ups is due after
// elapsed of budget. Set-ups are spread evenly over the budget so that
// one phase of host contention cannot slow all of them.
func setupDue(done, total int, elapsed, budget time.Duration) bool {
	return done < total && elapsed >= budget*time.Duration(done)/time.Duration(total)
}

// perTrade divides a total by a trade count (0 when no trades).
func perTrade(total float64, trades int) float64 {
	if trades == 0 {
		return 0
	}
	return total / float64(trades)
}
