package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile: a
// tail figure resting on fewer is one or two outliers, not a percentile.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile of sorted and whether at
// least minBeyond samples lie beyond it.
func quantile(sorted []int64, q float64) (v int64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return sorted[idx], n-1-idx >= minBeyond
}

// dist is a sorted copy of a latency sample set (nanoseconds).
type dist struct {
	sorted []int64
}

func newDist(samples []int64) dist {
	s := slices.Clone(samples)
	slices.Sort(s)
	return dist{sorted: s}
}

func (d dist) n() int { return len(d.sorted) }

// pct is quantile q in nanoseconds; errs collects a message when the
// sample set cannot support q.
func (d dist) pct(q float64, what string, errs *[]string) float64 {
	v, ok := quantile(d.sorted, q)
	if !ok {
		*errs = append(*errs, fmt.Sprintf("%s: p%g rests on %d samples (< %d beyond it)", what, q*100, d.n(), minBeyond))
	}
	return float64(v)
}

// pctOr is quantile q in nanoseconds, or 0 when the sample set is too
// small: for per-layer figures of a layer a workload does not use.
func (d dist) pctOr(q float64) float64 {
	v, ok := quantile(d.sorted, q)
	if !ok {
		return 0
	}
	return float64(v)
}

// sampleBuf is a closed-loop stream's latency record, allocated and
// touched before the timed window so recording never allocates and the
// process's resident size does not grow with throughput.
type sampleBuf struct {
	lat  []int64
	over int // samples that did not fit
}

func newSampleBuf(capacity int) *sampleBuf {
	b := make([]int64, capacity)
	for i := range b {
		b[i] = 1 // fault every page in now
	}
	return &sampleBuf{lat: b[:0]}
}

func (s *sampleBuf) add(ns int64) {
	if len(s.lat) < cap(s.lat) {
		s.lat = append(s.lat, ns)
	} else {
		s.over++
	}
}

func (s *sampleBuf) reset() { s.lat, s.over = s.lat[:0], 0 }

// procCounters is the whole-process state read before and after a timed
// window.
type procCounters struct {
	cpu     time.Duration
	ctxsw   int64
	mallocs uint64
	bytes   uint64
	numGC   uint32
}

func readProc() procCounters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procCounters{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		ctxsw:   ru.Nvcsw + ru.Nivcsw,
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		numGC:   ms.NumGC,
	}
}

// peakRSSMB reads the process's resident high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// bestQuarter is the nearest-rank value a quarter of the way into vs from
// its best end: the 25th percentile when lower is better, else the 75th.
func bestQuarter(vs []float64, lowerIsBetter bool) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	if !lowerIsBetter {
		slices.Reverse(s)
	}
	if len(s) == 0 {
		return 0
	}
	return s[int(math.Ceil(0.25*float64(len(s))))-1]
}

// medianDur is the median of a small set of durations.
func medianDur(ds []time.Duration) time.Duration {
	s := slices.Clone(ds)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
