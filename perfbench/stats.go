package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method, the default of Python's statistics.quantiles(xs,
// n=4), so spreads computed here and by that function agree. A single
// sample is its own quartiles; no samples give zeros.
func quartiles(xs []float64) [3]float64 {
	var q [3]float64
	switch len(xs) {
	case 0:
		return q
	case 1:
		return [3]float64{xs[0], xs[0], xs[0]}
	}
	s := sorted(xs)
	m := len(s)
	for i := 1; i <= 3; i++ {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		} else if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// percentileLevels are the candidate levels topPercentile picks from,
// highest first.
var percentileLevels = []float64{99.9, 99, 95, 90, 75, 50}

// topPercentile returns the highest level in percentileLevels that
// leaves at least ten samples beyond it, with its nearest-rank value.
// ok is false when even the median has fewer than ten samples above
// it (fewer than 20 samples).
func topPercentile(xs []float64) (level, value float64, ok bool) {
	for _, p := range percentileLevels {
		if len(xs)-nearestRank(p, len(xs)) >= 10 {
			return p, percentile(xs, p), true
		}
	}
	return 0, 0, false
}

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sorted(xs)[nearestRank(p, len(xs))-1]
}

// nearestRank is the 1-based rank of the p-th percentile of n samples:
// the smallest rank with at least p% of the samples at or below it.
// The tolerance keeps levels such as 99.9 exact despite binary
// fractions.
func nearestRank(p float64, n int) int {
	rank := int(math.Ceil(p/100*float64(n) - 1e-9))
	if rank < 1 {
		return 1
	}
	if rank > n {
		return n
	}
	return rank
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// streak tracks runs of consecutive critical sections by the same
// worker. It is updated inside the critical section, so the lock under
// test is what serializes it.
type streak struct {
	entries, runs int64
	last          int
}

func newStreak() streak { return streak{last: -1} }

func (s *streak) observe(worker int) {
	s.entries++
	if worker != s.last {
		s.runs++
		s.last = worker
	}
}

// mean is the average run length: 1 when workers strictly alternate,
// the entry count when one worker holds the lock throughout.
func (s *streak) mean() float64 {
	if s.runs == 0 {
		return 0
	}
	return float64(s.entries) / float64(s.runs)
}

// idleShare is the fraction of workers × wall that no cell kept busy.
func idleShare(busy time.Duration, workers int, wall time.Duration) float64 {
	if workers <= 0 || wall <= 0 {
		return 0
	}
	return 1 - float64(busy)/(float64(workers)*float64(wall))
}

// failRatio is failed ÷ attempted (0 when nothing was attempted).
func failRatio(failed, attempted int64) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// cpuTime returns the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler watches the live heap, as marked by each garbage
// collection, from start until stop. Its mean over collections is the
// memory the workload held while it allocated. It is steadier than the
// peak, which depends on which allocations a collection happens to
// catch, and than a time average, which a long phase without
// collections pins to one stale reading. The first observation is the
// live heap left by the collection before start, so a workload that
// never collects still reports one.
type heapSampler struct {
	quit, done chan struct{}
	sum, n     float64
	peak       uint64
}

// heapSampleEvery is how often heapSampler looks for a finished
// collection.
const heapSampleEvery = 5 * time.Millisecond

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		var seen uint64
		for {
			metrics.Read(s)
			if cycles := s[1].Value.Uint64(); h.n == 0 || cycles != seen {
				seen = cycles
				live := s[0].Value.Uint64()
				h.sum += float64(live)
				h.n++
				h.peak = max(h.peak, live)
			}
			select {
			case <-h.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends the sampling and returns the mean and the peak live heap
// in MiB.
func (h *heapSampler) stop() (mean, peak float64) {
	close(h.quit)
	<-h.done
	return h.sum / h.n / (1 << 20), float64(h.peak) / (1 << 20)
}
