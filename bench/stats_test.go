package main

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// oraclePercentile is the definition, spelt out: the smallest sample
// such that at least p percent of all samples are less than or equal to
// it.
func oraclePercentile(samples []uint32, p float64) uint32 {
	sorted := append([]uint32(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, v := range sorted {
		atOrBelow := 0
		for _, u := range samples {
			if u <= v {
				atOrBelow++
			}
		}
		if float64(atOrBelow) >= p/100*float64(len(samples)) {
			return v
		}
	}
	return sorted[len(sorted)-1]
}

func TestPercentileMatchesSortedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 3, 10, 99, 100, 101, 1000} {
		for trial := 0; trial < 5; trial++ {
			samples := make([]uint32, n)
			for i := range samples {
				samples[i] = uint32(rng.Intn(50)) // many ties
			}
			sorted := append([]uint32(nil), samples...)
			sortLatencies(sorted)
			for _, p := range []float64{1, 25, 50, 90, 99, 99.9, 100} {
				if got, want := percentile(sorted, p), oraclePercentile(samples, p); got != want {
					t.Fatalf("n=%d p=%v: percentile %d, oracle %d", n, p, got, want)
				}
			}
		}
	}
	if percentile(nil, 50) != 0 {
		t.Fatal("percentile of nothing must be 0")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	vs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q3 := quartiles(vs)
	if math.Abs(q1-2.75) > 1e-12 || math.Abs(q3-8.25) > 1e-12 {
		t.Fatalf("quartiles of 1..10 are %v and %v, want 2.75 and 8.25", q1, q3)
	}
	// statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
	q1, q3 = quartiles([]float64{10, 20, 30, 40, 50})
	if q1 != 15 || q3 != 45 {
		t.Fatalf("quartiles of 10..50 are %v and %v, want 15 and 45", q1, q3)
	}
}

func TestMedians(t *testing.T) {
	if got := medianF([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median of 3 is %v", got)
	}
	if got := medianF([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 4 is %v", got)
	}
	if got := medianUS([]int64{1000, 3000, 2000}); got != 2 {
		t.Fatalf("medianUS is %v", got)
	}
}

// TestSummarizeTakesMediansOverSegments builds a caller whose third time
// slice is ten times slower and checks that the reported figures are the
// steady ones while the whole-window array still holds it all.
func TestSummarizeTakesMediansOverSegments(t *testing.T) {
	start := time.Unix(0, 0)
	const window = 12 * time.Second
	sm := newSampler(start, window, 16)
	now := start
	for now.Before(sm.deadline()) {
		lat := time.Millisecond
		if now.Sub(start) >= 4*time.Second && now.Sub(start) < 6*time.Second {
			lat = 10 * time.Millisecond
		}
		sm.add(now, now.Add(lat))
		now = now.Add(lat)
	}
	w := summarize(sm, window)
	if w.segments != 6 {
		t.Fatalf("%d segments, want 6 (each holds over a thousand ops)", w.segments)
	}
	if math.Abs(w.opsPerS-1000) > 1 || w.p50us != 1000 || w.p99us != 1000 {
		t.Fatalf("medians over segments: %.1f ops/s, p50 %v, p99 %v; want 1000, 1000, 1000", w.opsPerS, w.p50us, w.p99us)
	}
	if len(w.lat) != 10000+200 || percentile(w.lat, 99) != uint32(10*time.Millisecond) {
		t.Fatalf("whole window: %d samples, p99 %d", len(w.lat), percentile(w.lat, 99))
	}
}

func TestSummarizeMergesSegmentsWhenOpsAreFew(t *testing.T) {
	start := time.Unix(0, 0)
	sm := newSampler(start, 6*time.Second, 16)
	for now := start; now.Before(sm.deadline()); now = now.Add(4 * time.Millisecond) {
		sm.add(now, now.Add(4*time.Millisecond))
	}
	w := summarize(sm, 6*time.Second)
	if len(w.lat) != 1500 || w.segments != 1 {
		t.Fatalf("%d ops in %d segments; 1500 ops cannot fill two segments of a thousand", len(w.lat), w.segments)
	}
	if math.Abs(w.opsPerS-250) > 0.01 {
		t.Fatalf("%.2f ops/s, want 250", w.opsPerS)
	}
}

func TestHistogramMarksPercentiles(t *testing.T) {
	var lat []uint32
	for i := 0; i < 980; i++ {
		lat = append(lat, 20_000)
	}
	for i := 0; i < 20; i++ {
		lat = append(lat, 5_000_000)
	}
	var buf bytes.Buffer
	printHistogram(&buf, lat)
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if !strings.Contains(lines[1], "<- p50") || !strings.Contains(lines[len(lines)-1], "<- p99") {
		t.Fatalf("p50 should mark the first bucket and p99 the last:\n%s", out)
	}
}
