package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// percentile returns the exact p-th percentile (0 < p <= 100) of sorted
// by the nearest-rank rule: the smallest sample with at least p percent
// of the samples at or below it. No interpolation, no histogram — the
// latency arrays are kept whole so the tail is a measured sample.
func percentile(sorted []uint32, p float64) uint32 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

func sortLatencies(ns []uint32) {
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
}

// medianF is the median of vs (mean of the middle pair when even); vs
// is sorted in place.
func medianF(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	m := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[m]
	}
	return (vs[m-1] + vs[m]) / 2
}

// medianUS is the median of a span-duration sample (ns) in microseconds.
func medianUS(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	vs := make([]float64, len(ns))
	for i, d := range ns {
		vs[i] = float64(d) / 1e3
	}
	return medianF(vs)
}

// printHistogram renders sorted latencies on a log2 scale (four
// sub-buckets per octave) with the buckets holding p50 and p99 marked,
// so a reader can check that each percentile sits inside one latency
// mode and not on the slope between two.
func printHistogram(w io.Writer, sorted []uint32) {
	if len(sorted) == 0 {
		return
	}
	bucket := func(ns uint32) int {
		if ns < 1 {
			ns = 1
		}
		return int(math.Floor(math.Log2(float64(ns)) * 4))
	}
	lo, hi := bucket(sorted[0]), bucket(sorted[len(sorted)-1])
	counts := make([]int, hi-lo+1)
	for _, ns := range sorted {
		counts[bucket(ns)-lo]++
	}
	peak := 0
	for _, c := range counts {
		if c > peak {
			peak = c
		}
	}
	b50, b99 := bucket(percentile(sorted, 50)), bucket(percentile(sorted, 99))
	cum := 0
	fmt.Fprintf(w, "latency histogram, %d samples (log2 scale, 4 buckets per octave)\n", len(sorted))
	for i, c := range counts {
		cum += c
		from := math.Pow(2, float64(lo+i)/4) / 1e3
		mark := ""
		if lo+i == b50 {
			mark += " <- p50"
		}
		if lo+i == b99 {
			mark += " <- p99"
		}
		bar := strings.Repeat("#", (c*50+peak-1)/peak)
		fmt.Fprintf(w, "%11.1f us %8d %6.2f%% %-50s%s\n", from, c, 100*float64(cum)/float64(len(sorted)), bar, mark)
	}
}

// slices is how many equal time slices a window is cut into. The host
// this runs on slows down for seconds at a time; a throughput or a
// percentile taken per slice and reported as the median over the slices
// ignores a burst that a whole-window figure would absorb.
const slices = 6

// sampler records the closed-loop caller's latencies, and where in them
// each time slice of the window ended.
type sampler struct {
	lat   []uint32
	cuts  [slices]int
	start time.Time
	slice time.Duration
	k     int
}

func newSampler(start time.Time, window time.Duration, capacity int) *sampler {
	return &sampler{lat: make([]uint32, 0, capacity), start: start, slice: window / slices}
}

func (s *sampler) deadline() time.Time { return s.start.Add(slices * s.slice) }

// add records an op that began at begin and ended at end; an op that
// crosses a slice boundary counts in the slice it began in.
func (s *sampler) add(begin, end time.Time) {
	for s.k < slices-1 && !begin.Before(s.start.Add(time.Duration(s.k+1)*s.slice)) {
		s.cuts[s.k] = len(s.lat)
		s.k++
	}
	s.lat = append(s.lat, uint32(end.Sub(begin)))
}

func (s *sampler) finish() {
	for ; s.k < slices; s.k++ {
		s.cuts[s.k] = len(s.lat)
	}
}

// window is what one timed window measured.
type window struct {
	lat     []uint32 // every timed op's latency in ns, sorted
	elapsed time.Duration
	failed  int
	heapMB  float64
	// Medians over the window's segments (see summarize).
	opsPerS, p50us, p99us float64
	segments              int
}

// summarize turns the caller's samples into a window. The six slices are
// grouped into as many segments as still leave each at least a thousand
// ops — so that ten samples lie beyond every segment's p99 — and the
// throughput, p50 and p99 of the window are the medians of the segments'
// own.
func summarize(s *sampler, elapsed time.Duration) *window {
	w := &window{elapsed: elapsed, segments: 1}
	s.finish()
	for _, n := range []int{6, 3, 2} {
		if len(s.lat)/n >= 1000 {
			w.segments = n
			break
		}
	}
	per := slices / w.segments
	var rates, p50s, p99s []float64
	for g := 0; g < w.segments; g++ {
		from := 0
		if g > 0 {
			from = s.cuts[g*per-1]
		}
		seg := append([]uint32(nil), s.lat[from:s.cuts[(g+1)*per-1]]...)
		sortLatencies(seg)
		dur := time.Duration(per) * s.slice
		if g == w.segments-1 {
			dur = elapsed - time.Duration(slices-per)*s.slice
		}
		rates = append(rates, float64(len(seg))/dur.Seconds())
		p50s = append(p50s, float64(percentile(seg, 50))/1e3)
		p99s = append(p99s, float64(percentile(seg, 99))/1e3)
		w.lat = append(w.lat, seg...)
	}
	sortLatencies(w.lat)
	w.opsPerS, w.p50us, w.p99us = medianF(rates), medianF(p50s), medianF(p99s)
	return w
}
