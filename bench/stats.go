package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile (0..1) of xs by nearest rank; xs is
// sorted in place. An empty sample reads 0.
func quantile[T int64 | float64](xs []T, q float64) T {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// median returns the middle of xs (mean of the two middles when even);
// xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if n := len(xs); n%2 == 0 {
		return (xs[n/2-1] + xs[n/2]) / 2
	}
	return xs[len(xs)/2]
}

// steady folds the values of a run's windows (or bursts, or repeated
// set-ups) into the one the run reports: the quartile on the good side,
// not the median. Interference on a shared host is one-sided: a busy
// neighbour slows stretches of several seconds by a third and never
// speeds anything up, and such stretches covered a quarter to a half of
// the sizing runs, enough to flip a median from run to run. The good
// quartile estimates the undisturbed system as long as a quarter of the
// windows were quiet.
func steady(xs []float64, better string) float64 {
	if better == higher {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// usage is a point reading of the process's resource counters; sub gives
// the change between two readings.
type usage struct {
	cpu      time.Duration
	alloc    uint64
	mallocs  uint64
	gcCycles uint32
	gcPause  time.Duration
	maxRSSMB float64
}

func readUsage() usage {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	u := usage{alloc: m.TotalAlloc, mallocs: m.Mallocs, gcCycles: m.NumGC, gcPause: time.Duration(m.PauseTotalNs)}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		u.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		u.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return u
}

func (u usage) sub(from usage) usage {
	return usage{
		cpu: u.cpu - from.cpu, alloc: u.alloc - from.alloc, mallocs: u.mallocs - from.mallocs,
		gcCycles: u.gcCycles - from.gcCycles, gcPause: u.gcPause - from.gcPause, maxRSSMB: u.maxRSSMB,
	}
}

func (u usage) add(v usage) usage {
	return usage{
		cpu: u.cpu + v.cpu, alloc: u.alloc + v.alloc, mallocs: u.mallocs + v.mallocs,
		gcCycles: u.gcCycles + v.gcCycles, gcPause: u.gcPause + v.gcPause, maxRSSMB: math.Max(u.maxRSSMB, v.maxRSSMB),
	}
}
