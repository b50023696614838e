package memsim

import (
	"sync"
	"sync/atomic"
)

// This file is the parallel half of the explorer: it executes one wave
// of schedules across a worker pool. Parallelism lives entirely inside
// a wave — workers share nothing but the frontier deque and the output
// slice, and every schedule's outcome lands at its own canonical index
// — so the merge in Explorer.Wave never sees worker timing.

// claimBatch is how many frontier indices a worker claims per deque
// access: small enough that the tail of a wave still balances across
// workers, large enough that the deque lock stays cold relative to the
// cost of simulating a schedule.
const claimBatch = 32

// frontierDeque splits a wave's index space [0, n) into one contiguous
// shard per worker. A worker claims batches from the front of its own
// shard; when that drains it steals the back half of the fullest
// remaining shard. Shards stay pairwise disjoint, so every index runs
// exactly once — which worker runs it is timing-dependent, but the
// output is indexed, so the result is not.
type frontierDeque struct {
	mu     sync.Mutex
	shards [][2]int // per-worker [lo, hi)
}

func newFrontierDeque(n, workers int) *frontierDeque {
	d := &frontierDeque{shards: make([][2]int, workers)}
	lo := 0
	for w := 0; w < workers; w++ {
		hi := lo + (n-lo)/(workers-w)
		d.shards[w] = [2]int{lo, hi}
		lo = hi
	}
	return d
}

// claim takes up to batch indices for worker w, stealing when w's own
// shard is empty. ok is false only when the whole frontier is drained.
func (d *frontierDeque) claim(w, batch int) (lo, hi int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := &d.shards[w]
	if s[0] >= s[1] {
		best, bestSize := -1, 0
		for i := range d.shards {
			if size := d.shards[i][1] - d.shards[i][0]; size > bestSize {
				best, bestSize = i, size
			}
		}
		if best < 0 {
			return 0, 0, false
		}
		victim := &d.shards[best]
		mid := victim[0] + bestSize/2
		*s = [2]int{mid, victim[1]}
		victim[1] = mid
	}
	lo = s[0]
	hi = lo + batch
	if hi > s[1] {
		hi = s[1]
	}
	s[0] = hi
	return lo, hi, true
}

// waveFailure is the lowest-indexed failing schedule seen in a wave;
// at is -1 while there is none.
type waveFailure struct {
	at  int
	err error
}

func (f *waveFailure) note(i int, err error) {
	if f.at < 0 || i < f.at {
		f.at, f.err = i, err
	}
}

// runWave executes one wave of schedules — sequentially, or sharded
// across workers — and returns its lowest failing index and, when the
// wave passed and expand is set, the next wave in canonical order.
// Each worker keeps only its own lowest failure, so a wave at the
// preemption bound (expand unset, the bulk of the space) holds
// O(workers) outcome state; only an expanding wave keeps every
// schedule's children, indexed like wave, to concatenate in order.
func (e *Explorer) runWave(wave [][]Preemption, depth, runsBefore int, expand bool, workers int) (waveFailure, [][]Preemption) {
	var children [][][]Preemption
	if expand {
		children = make([][][]Preemption, len(wave))
	}
	var completed atomic.Int64
	runAt := func(i int, fail *waveFailure) {
		kids, err := e.runOne(wave[i], expand)
		if err != nil {
			fail.note(i, err)
		} else if expand {
			children[i] = kids
		}
		if e.Progress == nil || e.ProgressEvery <= 0 {
			return
		}
		if c := completed.Add(1); c%int64(e.ProgressEvery) == 0 {
			e.Progress(ExploreProgress{Depth: depth, Frontier: len(wave), Runs: runsBefore + int(c)})
		}
	}
	if workers > len(wave) {
		workers = len(wave)
	}
	fail := waveFailure{at: -1}
	if workers <= 1 {
		for i := range wave {
			runAt(i, &fail)
		}
	} else {
		for _, f := range runSharded(len(wave), workers, runAt) {
			if f.at >= 0 {
				fail.note(f.at, f.err)
			}
		}
	}
	if fail.at >= 0 || !expand {
		return fail, nil
	}
	var next [][]Preemption
	for _, kids := range children {
		next = append(next, kids...)
	}
	return fail, next
}

// runSharded runs indices [0, n) across workers goroutines through a
// frontierDeque and returns each worker's lowest failure.
func runSharded(n, workers int, runAt func(i int, fail *waveFailure)) []waveFailure {
	deque := newFrontierDeque(n, workers)
	fails := make([]waveFailure, workers)
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		w := w
		fails[w].at = -1
		wg.Add(1)
		go func() {
			defer wg.Done()
			// A panic in Build or a simulated body (e.g. the
			// nondeterministic-build guard in chooser.Pick) must reach
			// the caller like it does on the sequential path, not kill
			// the process from an unrecoverable worker goroutine.
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() { panicked = r })
				}
			}()
			for {
				lo, hi, ok := deque.claim(w, claimBatch)
				if !ok {
					return
				}
				for i := lo; i < hi; i++ {
					runAt(i, &fails[w])
				}
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return fails
}
