package memsim

import (
	"fmt"
	"strings"
)

// DefaultMaxSteps bounds a run when RunConfig.MaxSteps is zero.
const DefaultMaxSteps = 20_000_000

// RunConfig configures one run of a machine.
type RunConfig struct {
	// Sched decides the interleaving. Defaults to NewRandom(1).
	Sched Scheduler
	// MaxSteps aborts runs that exceed this many scheduling points
	// (livelock/starvation guard). Defaults to DefaultMaxSteps.
	MaxSteps int64
	// Observer, if non-nil, is invoked at every scheduling decision
	// with the runnable set (ascending ids) and the chosen process.
	// Used by the systematic explorer.
	Observer func(step int64, runnable []int, chosen int)
}

// Result summarizes one completed run.
type Result struct {
	// Completed is true iff every process body ran to completion
	// with no violation.
	Completed bool
	// Deadlocked is true if some processes were still waiting when
	// no process could be scheduled.
	Deadlocked bool
	// TimedOut is true if the MaxSteps bound was hit.
	TimedOut bool
	// Violation holds the first assertion failure (mutual exclusion,
	// CS protocol), if any.
	Violation error
	// Steps is the total number of scheduling points executed.
	Steps int64
	// CSEntries is the total number of critical-section entries.
	CSEntries int64
	// Procs holds per-process statistics, indexed by process id.
	Procs []ProcStats
	// WaitingProcs lists the ids of processes blocked in an Await
	// when the run ended without completing.
	WaitingProcs []int
	// WaitingDetail describes, for each entry of WaitingProcs, the
	// variables its await watches — the first thing to look at when
	// diagnosing a deadlock.
	WaitingDetail []string
}

// Err converts a non-successful result into an error, nil otherwise.
func (r Result) Err() error {
	switch {
	case r.Violation != nil:
		return r.Violation
	case r.Deadlocked:
		return fmt.Errorf("memsim: deadlock after %d steps; %s", r.Steps, strings.Join(r.WaitingDetail, "; "))
	case r.TimedOut:
		return fmt.Errorf("memsim: run exceeded %d steps (livelock or starvation)", r.Steps)
	case !r.Completed:
		return fmt.Errorf("memsim: run did not complete")
	default:
		return nil
	}
}

// TotalRMRs sums RMRs over all processes.
func (r Result) TotalRMRs() int64 {
	var total int64
	for i := range r.Procs {
		total += r.Procs[i].RMRs
	}
	return total
}

// MaxRMRPerEntry returns the worst per-entry RMR cost observed by any
// process (requires the processes to use BeginEntrySection /
// EndExitSection, which the harness workload does).
func (r Result) MaxRMRPerEntry() int64 {
	var worst int64
	for i := range r.Procs {
		if g := r.Procs[i].MaxRMRGap; g > worst {
			worst = g
		}
	}
	return worst
}

// MeanRMRPerEntry returns total RMRs divided by total CS entries.
func (r Result) MeanRMRPerEntry() float64 {
	if r.CSEntries == 0 {
		return 0
	}
	return float64(r.TotalRMRs()) / float64(r.CSEntries)
}

// NonLocalSpinReads sums spin re-check reads of remotely homed
// variables across processes (DSM model).
func (r Result) NonLocalSpinReads() int64 {
	var total int64
	for i := range r.Procs {
		total += r.Procs[i].NonLocalSpinReads
	}
	return total
}

// TotalAborts sums withdrawn passages across processes.
func (r Result) TotalAborts() int64 {
	var total int64
	for i := range r.Procs {
		total += r.Procs[i].Aborts
	}
	return total
}

// Passages is the abortable workload's denominator: passages that
// either completed (a CS entry) or were withdrawn (an abort).
func (r Result) Passages() int64 { return r.CSEntries + r.TotalAborts() }

// AmortizedRMRPerPassage is total RMRs divided by completed-or-aborted
// passages — the honest cost measure for abortable mutual exclusion,
// where withdrawn passages do real (bounded) work too.
func (r Result) AmortizedRMRPerPassage() float64 {
	if p := r.Passages(); p != 0 {
		return float64(r.TotalRMRs()) / float64(p)
	}
	return 0
}

// MaxAbortResolveSteps is the worst steps-to-resolution of any abort
// request in the run (see ProcStats.MaxAbortResolveSteps).
func (r Result) MaxAbortResolveSteps() int64 {
	var worst int64
	for i := range r.Procs {
		if s := r.Procs[i].MaxAbortResolveSteps; s > worst {
			worst = s
		}
	}
	return worst
}

// Run executes the machine to completion (or violation, deadlock, or
// step bound) and returns the result. A machine can be run only once.
//
// A panic raised by a process body (other than the engine's own
// violation and kill sentinels) or by the scheduler reaches Run's
// caller, after every process still suspended has been unwound.
func (m *Machine) Run(cfg RunConfig) Result {
	if cfg.Sched == nil {
		cfg.Sched = NewRandom(1)
	}
	if cfg.MaxSteps <= 0 {
		cfg.MaxSteps = DefaultMaxSteps
	}
	if len(m.procs) == 0 {
		return Result{Completed: true}
	}
	m.distributeAbortPoints()

	defer m.stopAll()
	for _, p := range m.procs {
		p.start()
	}

	last := -1
	runnable := make([]int, 0, len(m.procs))
	var timedOut bool
	for m.violation == nil {
		runnable = runnable[:0]
		allDone := true
		for _, p := range m.procs {
			switch p.status {
			case statusReady, statusRecheck:
				runnable = append(runnable, p.id)
				allDone = false
			case statusWaiting:
				allDone = false
			}
		}
		if len(runnable) == 0 || allDone {
			break
		}
		if m.steps >= cfg.MaxSteps {
			timedOut = true
			break
		}
		id := cfg.Sched.Pick(m.steps, runnable, last)
		if cfg.Observer != nil {
			cfg.Observer(m.steps, runnable, id)
		}
		m.steps++
		last = id
		m.procs[id].resume()
	}

	res := Result{
		Violation: m.violation,
		TimedOut:  timedOut,
		Steps:     m.steps,
		CSEntries: m.csEntries,
	}
	if res.Violation == nil && !timedOut {
		for _, p := range m.procs {
			if p.status != statusWaiting {
				continue
			}
			res.WaitingProcs = append(res.WaitingProcs, p.id)
			names := make([]string, len(p.watch))
			for i, v := range p.watch {
				names[i] = m.varAt(v).String()
			}
			res.WaitingDetail = append(res.WaitingDetail,
				fmt.Sprintf("p%d awaits %v", p.id, names))
		}
	}
	// Unwind before reading stats: a killed body's deferred code runs.
	m.stopAll()
	res.Deadlocked = len(res.WaitingProcs) > 0
	res.Completed = res.Violation == nil && !res.Deadlocked && !timedOut
	res.Procs = make([]ProcStats, len(m.procs))
	for i, p := range m.procs {
		res.Procs[i] = p.stats
	}
	return res
}

// resume runs p's body up to its next scheduling point and records
// what it reported there.
func (p *Proc) resume() {
	kind, ok := p.next()
	switch {
	case !ok:
		p.status = statusDone
	case kind == reportBlocked:
		p.status = statusWaiting
	default:
		p.status = statusReady
	}
}

// stopAll unwinds every process body still suspended at a scheduling
// point. Stopping a finished (or never started) body is a no-op, so it
// is safe on every exit path of Run, a panicking one included.
func (m *Machine) stopAll() {
	for _, p := range m.procs {
		if p.stop != nil {
			p.stop()
		}
		p.status = statusDone
	}
}

// run is the coroutine body of a process: it executes the body and
// translates kills and violations into a plain return. Any other panic
// propagates to the engine, which resumed the body.
//
// The wrapper yields once before calling the body, so that ALL body
// code — including any preamble before the first memory operation,
// which may lazily allocate variables — executes inside the process's
// exclusive scheduling windows, in the order the scheduler picks.
func (p *Proc) run(yield func(reportKind) bool) {
	p.suspend = yield
	defer func() {
		switch r := recover().(type) {
		case nil, killed:
		case violation:
			p.m.fail(r.err)
		default:
			panic(r)
		}
	}()
	if !yield(reportStep) {
		return
	}
	p.body(p)
}
