package main

import (
	"math"
	"sort"
	"sync"
	"syscall"
)

// samples is a concurrency-safe list of observations (milliseconds
// unless stated otherwise).
type samples struct {
	mu sync.Mutex
	v  []float64
}

func (s *samples) add(x float64) {
	s.mu.Lock()
	s.v = append(s.v, x)
	s.mu.Unlock()
}

func (s *samples) values() []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]float64(nil), s.v...)
}

// quantile returns the q-quantile of v by linear interpolation between
// closest ranks (0 for an empty slice).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

func maxOf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		m = math.Max(m, x)
	}
	return m
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += x
	}
	return t / float64(len(v))
}

// windowed splits v, which is in time order, into consecutive windows of
// k values (a last, partial window is dropped), applies agg to each
// window and returns the median of the results; with no full window it
// returns agg(v). A slowdown of the machine that covers fewer than half
// of a run's windows does not move it, where it would move a quantile
// taken over the whole run.
func windowed(v []float64, k int, agg func([]float64) float64) float64 {
	if k <= 0 || len(v) < k {
		return agg(v)
	}
	var per []float64
	for i := 0; i+k <= len(v); i += k {
		per = append(per, agg(v[i:i+k]))
	}
	return median(per)
}

// geomean is the geometric mean of v (0 for an empty slice).
func geomean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	t := 0.0
	for _, x := range v {
		t += math.Log(x)
	}
	return math.Exp(t / float64(len(v)))
}

// cpuSeconds is the CPU time this process has used so far, user and
// system. The kernel does not count time the host gave to other guests
// (steal), which every wall-clock timing on a shared host includes.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
