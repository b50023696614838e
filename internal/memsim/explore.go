package memsim

import (
	"fmt"
	"math"
)

// This file implements preemption-bounded systematic exploration in the
// style of CHESS (Musuvathi & Qadeer): the scheduler runs
// non-preemptively (a process keeps the processor until it blocks or
// finishes) except for at most K explicitly chosen preemption points.
// Exploring all placements of up to K preemptions covers a
// polynomially-sized but empirically very effective slice of the
// interleaving space, and suffices to *prove* properties of small
// configurations relative to the bound.
//
// The schedule space is a tree: the root is the empty (purely
// non-preemptive) schedule, and the children of a schedule extend it
// with one preemption placed strictly after its last one, at a step
// where an alternative process was runnable. Because Build is
// deterministic, that tree is a fixed function of the machine — it
// does not depend on the order it is walked in. The explorer walks it
// wave by wave (all schedules with d preemptions before any with d+1),
// which makes every wave an embarrassingly parallel batch: the waves
// can be sharded across workers (see explore_shard.go) and merged by
// canonical index, so the result is bit-identical to a sequential walk
// regardless of worker timing. Explorer.Wave runs one wave at a time
// over an exported ExploreState, which is what lets harness checkpoint
// an exploration between waves and resume it.

// Preemption forces a context switch to Proc just before the operation
// at the given step index.
type Preemption struct {
	Step int64
	Proc int
}

const (
	// DefaultPreemptions is the preemption bound used when
	// Explorer.MaxPreemptions is left zero.
	DefaultPreemptions = 2

	// ZeroPreemptions requests an explicitly non-preemptive
	// exploration: only the single default schedule is run. It exists
	// because MaxPreemptions keeps 0 as "use the default" so that
	// zero-valued Explorers stay useful; without the sentinel an
	// honest zero-preemption check would be impossible to request.
	ZeroPreemptions = -1
)

// ExactPreemptions converts a user-facing preemption count k into the
// Explorer.MaxPreemptions encoding, making k = 0 honest: it selects
// ZeroPreemptions instead of silently falling back to
// DefaultPreemptions. Negative k is clamped to zero preemptions.
func ExactPreemptions(k int) int {
	if k <= 0 {
		return ZeroPreemptions
	}
	return k
}

// Explorer systematically explores the interleavings of a machine
// built by Build, up to MaxPreemptions forced context switches per run.
type Explorer struct {
	// Build constructs a fresh machine: allocate variables, add
	// processes. Called once per explored schedule; it must be
	// deterministic, and when Workers > 1 it is called from several
	// goroutines at once, so it must not close over shared mutable
	// state.
	Build func() *Machine
	// MaxPreemptions is the preemption bound K: positive values bound
	// the forced context switches per run, 0 selects
	// DefaultPreemptions, and ZeroPreemptions (the value
	// ExactPreemptions(0) returns) requests a purely non-preemptive
	// exploration of the single default schedule.
	MaxPreemptions int
	// MaxSteps bounds each individual run (default DefaultMaxSteps).
	MaxSteps int64
	// MaxRuns caps the total number of schedules explored
	// (default 200000). If hit, the result reports Exhausted=false.
	MaxRuns int
	// Check, if non-nil, is invoked after every successful run; a
	// non-nil error fails the exploration with that run's schedule.
	// Use it to verify properties beyond the built-in safety checks
	// (e.g. FIFO ordering). When Workers > 1 it is called
	// concurrently from the wave workers and must be safe for that.
	Check func(Result) error
	// Workers shards each wave of schedules across this many
	// goroutines, each owning a disjoint slice of the frontier and
	// stealing from the others as it drains (see explore_shard.go).
	// Values <= 1 select the sequential reference path. The merge is
	// canonical, so Runs, Exhausted, DepthRuns, and FailingSchedule
	// are bit-identical across worker counts.
	Workers int
	// Progress, if non-nil, observes the exploration: it fires as
	// each wave starts and, when ProgressEvery > 0, every
	// ProgressEvery completed runs within a wave. Observation-only —
	// it cannot influence the result — and called concurrently from
	// wave workers, so implementations synchronize their own output.
	Progress func(ExploreProgress)
	// ProgressEvery is the intra-wave Progress cadence in runs
	// (0 disables intra-wave events; wave starts always fire).
	ProgressEvery int
}

// ExploreProgress is one exploration-progress notification.
type ExploreProgress struct {
	// Depth is the preemption depth (wave index) being explored.
	Depth int
	// Frontier is the number of schedules in the current wave.
	Frontier int
	// Runs is the number of schedules executed so far, including
	// completed prior waves. For intra-wave events the count is a
	// point-in-time atomic snapshot, so its timing (not its final
	// value) varies across worker schedules.
	Runs int
}

// ExploreResult reports the outcome of an exploration.
type ExploreResult struct {
	// Runs is the number of schedules executed.
	Runs int
	// Err is the first failure found (violation, deadlock, or step
	// bound), nil if every explored schedule passed.
	Err error
	// FailingSchedule reproduces the failure via ReplaySchedule. It is
	// the canonically smallest failing schedule in the explored space:
	// fewest preemptions first, then lexicographically smallest by
	// (Step, Proc) — identical whatever Workers was.
	FailingSchedule []Preemption
	// Exhausted is true iff the entire preemption-bounded schedule
	// space was covered within MaxRuns.
	Exhausted bool
	// DepthRuns is the number of schedules executed at each preemption
	// depth: DepthRuns[d] is the size of wave d (truncated when
	// MaxRuns was hit mid-wave). Its sum equals Runs.
	DepthRuns []int
}

// chooser is the Scheduler that realizes one preemption schedule over
// the non-preemptive default policy (keep running the current process;
// on a forced switch, take the lowest runnable id).
type chooser struct {
	preemptions []Preemption
	next        int
	// trace records, for each step at or after the last preemption,
	// the runnable set and the default choice (for child generation).
	traceFrom int64
	choices   []choicePoint
}

type choicePoint struct {
	step     int64
	runnable []int
	chosen   int
}

func defaultPick(runnable []int, last int) int {
	for _, id := range runnable {
		if id == last {
			return id
		}
	}
	return runnable[0]
}

// Pick implements Scheduler.
func (c *chooser) Pick(step int64, runnable []int, last int) int {
	var pick int
	if c.next < len(c.preemptions) && c.preemptions[c.next].Step == step {
		pick = c.preemptions[c.next].Proc
		if !contains(runnable, pick) {
			panic(fmt.Sprintf("memsim: schedule replay diverged at step %d: process %d not runnable in %v (nondeterministic build?)", step, pick, runnable))
		}
		c.next++
	} else {
		pick = defaultPick(runnable, last)
	}
	if step >= c.traceFrom {
		c.choices = append(c.choices, choicePoint{
			step:     step,
			runnable: append([]int(nil), runnable...),
			chosen:   pick,
		})
	}
	return pick
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// scheduleOutcome is one schedule's outcome within a wave: its
// failure (violation, deadlock, step bound, or Check error), if any,
// and the next-wave schedules it spawns in canonical (step, proc)
// order — none for failing schedules and for schedules already at the
// preemption bound.
type scheduleOutcome struct {
	err      error
	children [][]Preemption
}

// runOne executes one schedule against a fresh machine and, unless the
// schedule already sits at the preemption bound, derives its children:
// one new preemption strictly after the current last one, to every
// alternative runnable process, in (step, proc) order. That ordering —
// together with waves listing children in parent order — is what makes
// a wave's index order the canonical (shortest, then lexicographic)
// order on schedules.
func (e *Explorer) runOne(sched []Preemption, maxPre int) scheduleOutcome {
	ch := &chooser{preemptions: sched}
	if n := len(sched); n > 0 {
		ch.traceFrom = sched[n-1].Step + 1
	}
	expand := len(sched) < maxPre
	if !expand {
		// The deepest wave is the bulk of the space and generates no
		// children; skip choice recording entirely there.
		ch.traceFrom = math.MaxInt64
	}
	m := e.Build()
	r := m.Run(RunConfig{Sched: ch, MaxSteps: e.MaxSteps})
	wr := scheduleOutcome{err: r.Err()}
	if wr.err == nil && e.Check != nil {
		wr.err = e.Check(r)
	}
	if wr.err != nil || !expand {
		return wr
	}
	for _, cp := range ch.choices {
		for _, alt := range cp.runnable {
			if alt == cp.chosen {
				continue
			}
			child := make([]Preemption, len(sched)+1)
			copy(child, sched)
			child[len(sched)] = Preemption{Step: cp.step, Proc: alt}
			wr.children = append(wr.children, child)
		}
	}
	return wr
}

// ResolvedPreemptions returns the literal preemption bound K that the
// MaxPreemptions encoding selects: ZeroPreemptions resolves to 0, zero
// resolves to DefaultPreemptions, positive values pass through.
func (e *Explorer) ResolvedPreemptions() int {
	switch {
	case e.MaxPreemptions < 0:
		return 0
	case e.MaxPreemptions == 0:
		return DefaultPreemptions
	default:
		return e.MaxPreemptions
	}
}

// ExploreState is an exploration between two waves: everything Wave
// needs to run the next one. It is exported so that a caller can
// persist it between waves and resume from it later (harness
// checkpoints it as the fetchphi.explore/v1 checkpoint extension);
// because wave execution is a pure function of the machine, a resumed
// exploration ends bit-identical to an uninterrupted one.
type ExploreState struct {
	// Depth is the preemption depth of the pending wave: the number of
	// waves that completed without finishing the exploration.
	Depth int
	// Frontier is the pending wave, in canonical order. A fresh
	// exploration's frontier is the single empty schedule.
	Frontier [][]Preemption
	// Result is the coverage so far. Runs and DepthRuns grow wave by
	// wave; Err, FailingSchedule and Exhausted are set when the
	// exploration finishes.
	Result ExploreResult
	// Done is true once the exploration has finished: the space was
	// exhausted, MaxRuns was hit, or a wave contained a failure.
	Done bool
}

// NewExploreState returns the state of an exploration that has not run
// any wave yet.
func NewExploreState() *ExploreState {
	return &ExploreState{Frontier: [][]Preemption{nil}}
}

// Wave runs the pending wave of st and advances st past it, returning
// true once the exploration is done (a done state is left unchanged).
// Each wave is either executed in full or truncated to its canonical
// prefix when MaxRuns lands inside it, and the first failing index of
// a wave in canonical order is the canonically smallest failing
// schedule, so the final state is bit-identical for every Workers
// value.
func (e *Explorer) Wave(st *ExploreState) (done bool) {
	if st.Done {
		return true
	}
	maxRuns := e.MaxRuns
	if maxRuns <= 0 {
		maxRuns = 200_000
	}
	if len(st.Frontier) == 0 {
		st.Result.Exhausted = true
		st.Done = true
		return true
	}
	if st.Result.Runs >= maxRuns {
		// Cap hit with work left: not exhausted.
		st.Frontier, st.Done = nil, true
		return true
	}
	wave := st.Frontier
	truncated := false
	if remaining := maxRuns - st.Result.Runs; len(wave) > remaining {
		// Run the canonical prefix of the wave, so the set of
		// schedules executed under the cap is deterministic too.
		wave = wave[:remaining]
		truncated = true
	}
	if e.Progress != nil {
		e.Progress(ExploreProgress{Depth: st.Depth, Frontier: len(wave), Runs: st.Result.Runs})
	}
	workers := e.Workers
	if workers < 1 {
		workers = 1
	}
	out := e.runWave(wave, st.Depth, st.Result.Runs, e.ResolvedPreemptions(), workers)
	st.Result.Runs += len(wave)
	st.Result.DepthRuns = append(st.Result.DepthRuns, len(wave))
	// Canonical merge: the wave is in canonical order and was run to
	// completion, so the first failing index is the canonically
	// smallest failing schedule no matter which worker ran it — and
	// any failure in a deeper wave is canonically larger.
	for i := range out {
		if out[i].err != nil {
			st.Result.Err = out[i].err
			st.Result.FailingSchedule = wave[i]
			st.Frontier, st.Done = nil, true
			return true
		}
	}
	if truncated {
		st.Frontier, st.Done = nil, true
		return true
	}
	var next [][]Preemption
	for i := range out {
		next = append(next, out[i].children...)
	}
	st.Frontier = next
	st.Depth++
	return false
}

// Run explores the preemption-bounded schedule space wave by wave,
// stopping after the first wave that contains a failure. The reported
// failure is the canonically smallest failing schedule; Runs,
// Exhausted, and DepthRuns are bit-identical for every Workers value.
func (e *Explorer) Run() ExploreResult {
	st := NewExploreState()
	for !e.Wave(st) {
	}
	return st.Result
}

// ReplaySchedule runs one specific preemption schedule against a fresh
// machine from Build and returns the run result — used to reproduce a
// FailingSchedule under a debugger or with extra assertions.
func (e *Explorer) ReplaySchedule(sched []Preemption) Result {
	m := e.Build()
	return m.Run(RunConfig{Sched: &chooser{preemptions: sched}, MaxSteps: e.MaxSteps})
}
