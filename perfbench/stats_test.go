package main

import (
	"math"
	"testing"
	"time"
)

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		got := quartiles(tc.in)
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
				break
			}
		}
	}
}

func TestTopPercentileLeavesTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: sorting is exercised
		}
		return xs
	}
	for _, tc := range []struct {
		n         int
		level     float64
		value     float64
		available bool
	}{
		{19, 0, 0, false},
		{20, 50, 10, true},
		{99, 75, 75, true},
		{100, 90, 90, true},
		{999, 95, 950, true},
		{1000, 99, 990, true},
		{10000, 99.9, 9990, true},
	} {
		level, value, ok := topPercentile(seq(tc.n))
		if ok != tc.available || level != tc.level || value != tc.value {
			t.Errorf("topPercentile(%d samples) = p%v %v %v, want p%v %v %v",
				tc.n, level, value, ok, tc.level, tc.value, tc.available)
		}
		if ok && tc.n-nearestRank(level, tc.n) < 10 {
			t.Errorf("%d samples: p%v leaves fewer than ten samples beyond it", tc.n, level)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for p, want := range map[float64]float64{0: 1, 20: 1, 21: 2, 50: 3, 99: 5, 100: 5} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile(nil) = %v, want 0", got)
	}
}

func TestStreak(t *testing.T) {
	for _, tc := range []struct {
		owners []int
		want   float64
	}{
		{nil, 0},
		{[]int{0, 1, 0, 1}, 1},
		{[]int{0, 0, 0, 0}, 4},
		{[]int{0, 0, 1, 1, 1, 0}, 2},
	} {
		s := newStreak()
		for _, w := range tc.owners {
			s.observe(w)
		}
		if got := s.mean(); got != tc.want {
			t.Errorf("streak over %v = %v, want %v", tc.owners, got, tc.want)
		}
	}
}

func TestIdleShare(t *testing.T) {
	for _, tc := range []struct {
		busy    time.Duration
		workers int
		wall    time.Duration
		want    float64
	}{
		{20 * time.Second, 2, 10 * time.Second, 0},
		{10 * time.Second, 2, 10 * time.Second, 0.5},
		{0, 2, 10 * time.Second, 1},
		{time.Second, 0, time.Second, 0},
		{time.Second, 2, 0, 0},
	} {
		if got := idleShare(tc.busy, tc.workers, tc.wall); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("idleShare(%v, %d, %v) = %v, want %v", tc.busy, tc.workers, tc.wall, got, tc.want)
		}
	}
}

func TestFailRatio(t *testing.T) {
	for _, tc := range []struct {
		failed, attempted int64
		want              float64
	}{
		{0, 0, 0},
		{0, 10, 0},
		{1, 4, 0.25},
		{3, 3, 1},
	} {
		if got := failRatio(tc.failed, tc.attempted); got != tc.want {
			t.Errorf("failRatio(%d, %d) = %v, want %v", tc.failed, tc.attempted, got, tc.want)
		}
	}
}
