package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"fetchphi/internal/nativelock"
)

// nativeWorkers is the number of goroutines contending for each lock;
// the generic locks are sized for exactly this many identities.
const nativeWorkers = 2

// nativePairs is the number of acquire/release pairs each worker makes
// in one trial.
const nativePairs = 20_000

// sampleEvery is the traced run's acquire-timing sample rate: one
// acquire in sampleEvery is timed, per worker.
const sampleEvery = 16

// lockCase is one lock of the native zoo. make builds a fresh lock and
// returns, for each worker identity, its acquire and release calls.
type lockCase struct {
	name string
	make func() func(id int) (acquire, release func())
}

// lockCases lists the paper's G-CC lock first (the only one the
// end-to-end metrics follow), then the references.
var lockCases = []lockCase{
	{"generic-inc", func() func(int) (func(), func()) {
		l := nativelock.NewGeneric(nativeWorkers, nativelock.FetchIncrement)
		return func(id int) (func(), func()) { return func() { l.LockID(id) }, func() { l.UnlockID(id) } }
	}},
	{"generic-swap", func() func(int) (func(), func()) {
		l := nativelock.NewGeneric(nativeWorkers, nativelock.FetchStore)
		return func(id int) (func(), func()) { return func() { l.LockID(id) }, func() { l.UnlockID(id) } }
	}},
	{"clh", func() func(int) (func(), func()) {
		l := nativelock.NewCLHLock()
		return func(int) (func(), func()) {
			var tok *nativelock.CLHToken
			return func() { tok = l.Lock() }, func() { l.Unlock(tok) }
		}
	}},
	{"ticket", func() func(int) (func(), func()) {
		l := new(nativelock.TicketLock)
		return func(int) (func(), func()) { return l.Lock, l.Unlock }
	}},
	{"mcs", func() func(int) (func(), func()) {
		l := nativelock.NewMCSLock()
		return func(int) (func(), func()) {
			var node *nativelock.MCSNode
			return func() { node = l.Lock() }, func() { l.Unlock(node) }
		}
	}},
	{"peterson-tree", func() func(int) (func(), func()) {
		l := nativelock.NewTreeLock(nativeWorkers)
		return func(id int) (func(), func()) { return func() { l.LockID(id) }, func() { l.UnlockID(id) } }
	}},
	{"mutex", func() func(int) (func(), func()) {
		mu := new(sync.Mutex)
		return func(int) (func(), func()) { return mu.Lock, mu.Unlock }
	}},
}

// trialResult is one closed-loop trial of one lock.
type trialResult struct {
	wall, cpu time.Duration
	// lost is the number of increments of the unprotected counter that
	// went missing: nonzero only if mutual exclusion failed.
	lost   int64
	streak float64
	// samples are sampled acquire latencies in ns (traced trials of
	// generic-inc only).
	samples []float64
}

// trial runs nativeWorkers goroutines that each make pairs acquire/
// release pairs as fast as they can, and times the whole from a common
// start. Inside the critical section each worker increments a counter
// the lock alone protects and records its identity, from which the
// streak follows. sample > 0 times one acquire in sample.
func trial(bind func(int) (func(), func()), pairs, sample int) trialResult {
	var counter int64
	st := newStreak()
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	samples := make([][]float64, nativeWorkers)
	ready.Add(nativeWorkers)
	done.Add(nativeWorkers)
	for w := 0; w < nativeWorkers; w++ {
		w := w
		acquire, release := bind(w)
		go func() {
			defer done.Done()
			ready.Done()
			<-start
			for i := 0; i < pairs; i++ {
				if sample > 0 && i%sample == 0 {
					t := time.Now()
					acquire()
					samples[w] = append(samples[w], float64(time.Since(t)))
				} else {
					acquire()
				}
				counter++
				st.observe(w)
				release()
			}
		}()
	}
	ready.Wait()
	t0, c0 := time.Now(), cpuTime()
	close(start)
	done.Wait()
	r := trialResult{wall: time.Since(t0), cpu: cpuTime() - c0,
		lost: int64(nativeWorkers*pairs) - counter, streak: st.mean()}
	for _, s := range samples {
		r.samples = append(r.samples, s...)
	}
	return r
}

// nativeRoundsPerSecond sizes a run: a round, one trial of each lock,
// takes about an eighth of a second on a 2-CPU host, so a run makes
// this many rounds per requested second. The count is fixed rather than
// timed, so every run does the same work and keeps the same amount of
// bookkeeping on the heap it measures.
const nativeRoundsPerSecond = 8

// nativeWorkload runs rounds of one trial per lock, in lockCases order.
// Each trial gets a freshly made lock, so the medians average over the
// lock's placement in memory rather than inheriting one placement for
// the whole run. A traced run traces every second round. It takes no
// seed. Every trial must lose no update. The end-to-end metrics are
// the medians over untraced generic-inc trials.
func nativeWorkload(cfg config) result {
	setup := timeSetup(func() {
		for _, c := range lockCases {
			c.make()
		}
	})
	rounds := max(2, int(math.Ceil(cfg.seconds*nativeRoundsPerSecond)))
	plain := make([][]trialResult, len(lockCases))
	traced := make([][]trialResult, len(lockCases))
	for i := range lockCases {
		plain[i] = make([]trialResult, 0, rounds)
		traced[i] = make([]trialResult, 0, rounds)
	}
	plainRounds := make([]float64, 0, rounds)
	tracedRounds := make([]float64, 0, rounds)
	var traces *tracer
	if cfg.traced {
		traces = newTracer()
	}
	runtime.GC() // start the timed region without set-up garbage
	heap := startHeapSampler()
	for n := 0; n < rounds; n++ {
		var tr *tracer
		if n%2 == 1 {
			tr = traces
		}
		t0 := time.Now()
		root := tr.begin("bench", "native", -1)
		for i, c := range lockCases {
			sample := 0
			if tr != nil && i == 0 {
				sample = sampleEvery
			}
			id := tr.begin("nativelock", c.name, root)
			r := trial(c.make(), nativePairs, sample)
			tr.end(id)
			if tr == nil {
				plain[i] = append(plain[i], r)
			} else {
				traced[i] = append(traced[i], r)
			}
		}
		tr.end(root)
		if tr == nil {
			plainRounds = append(plainRounds, time.Since(t0).Seconds())
		} else {
			tracedRounds = append(tracedRounds, time.Since(t0).Seconds())
		}
	}
	heapMB, heapPeakMB := heap.stop()

	var res result
	for i, c := range lockCases {
		for _, r := range append(append([]trialResult(nil), plain[i]...), traced[i]...) {
			res.attempted++
			if r.lost != 0 {
				fmt.Fprintf(cfg.out, "native: %s lost %d of %d updates\n", c.name, r.lost, nativeWorkers*nativePairs)
				res.failed++
			}
		}
	}
	nsPerPair := func(rs []trialResult) []float64 {
		out := make([]float64, len(rs))
		for i, r := range rs {
			out[i] = float64(r.wall) / float64(nativeWorkers*nativePairs)
		}
		return out
	}
	generic := nsPerPair(plain[0])
	q := quartiles(generic)
	fmt.Fprintf(cfg.out, "native: %d workers × %d pairs per trial, %d rounds, %d failed; generic-inc %.1f ns/pair (quartiles %.1f–%.1f over %d trials)\n",
		nativeWorkers, nativePairs, len(plainRounds)+len(tracedRounds), res.failed, q[1], q[0], q[2], len(generic))
	if !cfg.traced {
		var walls, cpus []float64
		for _, r := range plain[0] {
			walls = append(walls, r.wall.Seconds())
			cpus = append(cpus, r.cpu.Seconds())
		}
		res.metrics = map[string]float64{"setup_s": setup, "wall_s": median(walls),
			"cpu_s": median(cpus), "heap_mb": heapMB}
		return res
	}

	m := map[string]float64{"heap.peak_mb": heapPeakMB}
	if err := traceMetrics(m, traces.snapshot(), tracedRounds, plainRounds); err != nil {
		fmt.Fprintf(cfg.out, "native: trace: %v\n", err)
		res.failed++
	}
	for i, c := range lockCases {
		var streaks []float64
		for _, r := range plain[i] {
			streaks = append(streaks, r.streak)
		}
		m["nativelock."+c.name+".acquire_ns"] = median(nsPerPair(plain[i]))
		m["nativelock."+c.name+".streak"] = median(streaks)
	}
	var samples []float64
	for _, r := range traced[0] {
		samples = append(samples, r.samples...)
	}
	m["nativelock.generic-inc.acquire_p50_ns"] = percentile(samples, 50)
	m["nativelock.generic-inc.acquire_p99_ns"] = percentile(samples, 99)
	m["nativelock.generic-inc.acquire_samples"] = float64(len(samples))
	if level, v, ok := topPercentile(samples); ok {
		fmt.Fprintf(cfg.out, "native: generic-inc sampled acquire p%g = %.0f ns over %d samples\n", level, v, len(samples))
	}
	res.metrics = m
	return res
}
