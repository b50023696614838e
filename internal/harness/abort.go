package harness

import (
	"fmt"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// This file is the abortable-mutual-exclusion counterpart of the
// harness: the workload driver (RunAbortable), the model-check surface
// (AbortableCheckExplorer / CheckAbortable), and the sweep integration
// (Cell.Abortable). A passage is one BeginEntrySection that ends in
// either a critical-section entry or a withdrawal; the headline metric
// is amortized RMR per passage, and the headline liveness property is
// wait-free withdrawal: a bounded number of the withdrawer's own
// scheduling points between abort delivery and resolution.

// AbortableAlgorithm is an Algorithm whose entry section can withdraw
// in response to a delivered abort request (core.TokenAbortable and
// core.GDSMAbortable implement it). AcquireAbortable returning false
// means the passage was withdrawn and must be closed with
// memsim.Proc.AbortPassage; true means the process holds the lock (a
// pending request, if any, lapses at EnterCS).
type AbortableAlgorithm interface {
	Algorithm
	AcquireAbortable(p *memsim.Proc) bool
}

// AbortableBuilder constructs a fresh abortable algorithm instance on
// a machine; the Builder contract otherwise applies.
type AbortableBuilder func(m *memsim.Machine) AbortableAlgorithm

// AsBuilder adapts an AbortableBuilder to the plain Builder surface,
// so abortable algorithms also run the standard (abort-free)
// conformance and sweep paths.
func (b AbortableBuilder) AsBuilder() Builder {
	return func(m *memsim.Machine) Algorithm { return b(m) }
}

// AbortWorkload is a Workload plus an abort schedule and a retry
// policy for withdrawn entries.
type AbortWorkload struct {
	Workload
	// Aborts is the adversary's abort schedule, delivered via
	// memsim.Machine.ScheduleAborts.
	Aborts []memsim.AbortPoint
	// Retries is how many times a process re-requests after a
	// withdrawal before giving the entry up (each re-request is a new
	// passage; 0 means aborted entries are simply lost).
	Retries int
	// RetryDelay is the number of private operations a process
	// performs between a withdrawal and its re-request — the "re-
	// request after d steps" knob of the abort adversary.
	RetryDelay int
}

// RunAbortable executes one abortable workload and returns its
// metrics. Unlike Run, a completed run need not reach N×Entries
// critical sections — withdrawn entries whose retry budget ran out are
// legitimately lost — so the completion check is per-passage
// accounting plus the lost-update counter, not an entry count.
func RunAbortable(b AbortableBuilder, w AbortWorkload) (Metrics, error) {
	return runAbortableTimed(b, w, nil)
}

// runAbortableTimed is RunAbortable with runTimed's accounting-
// boundary hook.
func runAbortableTimed(b AbortableBuilder, w AbortWorkload, afterSim func()) (Metrics, error) {
	if w.N <= 0 || w.Entries <= 0 {
		return Metrics{}, fmt.Errorf("harness: invalid workload N=%d Entries=%d", w.N, w.Entries)
	}
	sched := w.Sched
	if sched == nil {
		sched = memsim.NewRandom(w.Seed)
	}
	participants := w.Participants
	if participants <= 0 || participants > w.N {
		participants = w.N
	}
	m := memsim.NewMachine(w.Model, w.N)
	if w.Sink != nil {
		m.AttachSink(w.Sink)
	}
	m.ScheduleAborts(w.Aborts...)
	alg := b(m)
	scratch := m.NewVar("cs-scratch", memsim.HomeGlobal, 0)
	type passageSample struct {
		rmrs    int64
		aborted bool
	}
	samples := make([][]passageSample, w.N)
	for i := 0; i < w.N; i++ {
		i := i
		if i >= participants {
			m.AddProc(fmt.Sprintf("idle%d", i), func(*memsim.Proc) {})
			continue
		}
		samples[i] = make([]passageSample, 0, w.Entries)
		local := m.NewVar(fmt.Sprintf("ncs-local[%d]", i), i, 0)
		m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
			for e := 0; e < w.Entries; e++ {
				for attempt := 0; ; attempt++ {
					p.BeginEntrySection()
					if alg.AcquireAbortable(p) {
						p.EnterCS()
						for k := 0; k < w.CSOps; k++ {
							p.RMW(scratch, func(x memsim.Word) memsim.Word { return x + 1 })
						}
						p.ExitCS()
						alg.Release(p)
						gap := p.EndExitSection()
						samples[i] = append(samples[i], passageSample{rmrs: gap})
						break
					}
					gap := p.AbortPassage()
					samples[i] = append(samples[i], passageSample{rmrs: gap, aborted: true})
					if attempt >= w.Retries {
						break
					}
					for k := 0; k < w.RetryDelay; k++ {
						p.Write(local, memsim.Word(k))
					}
				}
				for k := 0; k < w.NCSOps; k++ {
					p.Write(local, memsim.Word(k))
				}
			}
		})
	}

	res := m.Run(memsim.RunConfig{Sched: sched, MaxSteps: w.MaxSteps})
	if afterSim != nil {
		afterSim()
	}
	met := Metrics{
		Result:          res,
		MeanRMR:         res.MeanRMRPerEntry(),
		WorstRMR:        res.MaxRMRPerEntry(),
		NonLocalSpins:   res.NonLocalSpinReads(),
		Aborts:          res.TotalAborts(),
		Passages:        res.Passages(),
		AmortizedRMR:    res.AmortizedRMRPerPassage(),
		MaxAbortResolve: res.MaxAbortResolveSteps(),
	}
	for _, v := range m.HotVars(HotspotTopK) {
		met.Hotspots = append(met.Hotspots, obs.HotVar{Name: v.Name, RMRs: v.RMRs})
	}
	met.Obs = obs.RunMetrics{
		Entries:   res.CSEntries,
		TotalRMRs: res.TotalRMRs(),
	}
	for ph := memsim.Phase(0); ph < memsim.NumPhases; ph++ {
		var total int64
		for i := range res.Procs {
			total += res.Procs[i].PhaseRMRs[ph]
		}
		if total != 0 {
			if met.Obs.PhaseRMRs == nil {
				met.Obs.PhaseRMRs = make(map[string]int64, int(memsim.NumPhases))
			}
			met.Obs.PhaseRMRs[ph.String()] = total
		}
	}
	for _, ss := range samples {
		for _, s := range ss {
			met.Obs.RMRPerEntry.Observe(s.rmrs)
		}
	}
	if err := res.Err(); err != nil {
		return met, fmt.Errorf("harness: %s on %v with N=%d (aborts %s): %w",
			alg.Name(), w.Model, w.N, memsim.FormatAbortSchedule(w.Aborts), err)
	}
	// Every passage must be accounted for: each sample is exactly one
	// completed or withdrawn passage.
	var sampled int64
	for _, ss := range samples {
		sampled += int64(len(ss))
	}
	if sampled != res.Passages() {
		return met, fmt.Errorf("harness: %s recorded %d passage samples, but the run counted %d passages",
			alg.Name(), sampled, res.Passages())
	}
	// The lost-update check: only actual CS entries increment scratch.
	if want := memsim.Word(res.CSEntries) * memsim.Word(w.CSOps); m.Value(scratch) != want {
		return met, fmt.Errorf("harness: %s lost critical-section updates: scratch=%d, want %d",
			alg.Name(), m.Value(scratch), want)
	}
	return met, nil
}

// AbortResolveBound is the default wait-free-withdrawal bound the
// conformance checks assert: no abort request may stay pending for
// more than this many of the target's own scheduling points. The
// constant is deliberately generous — the property being pinned is
// boundedness (independent of N, entries, and schedule), not the exact
// constant.
const AbortResolveBound = 200

// AbortableCheckExplorer builds the abort-conformance explorer for one
// model and one abort schedule: n processes × entries entries, each
// withdrawn entry re-requested once (so passage-1 abort points are
// reachable). Beyond the built-in safety checks, every explored run
// asserts wait-free withdrawal via resolveBound (<=0 selects
// AbortResolveBound). It is the single definition of the abort
// model-check workload, mirroring CheckExplorer's role.
func AbortableCheckExplorer(b AbortableBuilder, model memsim.Model, n, entries int, aborts []memsim.AbortPoint, resolveBound int64, opts ExploreOptions) *memsim.Explorer {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultCheckMaxRuns
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultCheckMaxSteps
	}
	if resolveBound <= 0 {
		resolveBound = AbortResolveBound
	}
	e := &memsim.Explorer{
		Build: func() *memsim.Machine {
			m := memsim.NewMachine(model, n)
			m.ScheduleAborts(aborts...)
			alg := b(m)
			for i := 0; i < n; i++ {
				m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
					for e := 0; e < entries; e++ {
						for attempt := 0; ; attempt++ {
							p.BeginEntrySection()
							if alg.AcquireAbortable(p) {
								p.EnterCS()
								p.ExitCS()
								alg.Release(p)
								p.EndExitSection()
								break
							}
							p.AbortPassage()
							if attempt >= 1 {
								break
							}
						}
					}
				})
			}
			return m
		},
		MaxPreemptions: memsim.ExactPreemptions(opts.Preemptions),
		MaxSteps:       maxSteps,
		MaxRuns:        maxRuns,
		Workers:        opts.Workers,
		ProgressEvery:  opts.ProgressEvery,
		Check: func(r memsim.Result) error {
			if got := r.MaxAbortResolveSteps(); got > resolveBound {
				return fmt.Errorf("withdrawal not wait-free: abort request pending for %d own steps (bound %d)", got, resolveBound)
			}
			return nil
		},
	}
	if opts.Progress != nil {
		e.Progress = func(p memsim.ExploreProgress) { opts.Progress(model, p) }
	}
	return e
}

// CheckAbortable exhausts the preemption-bounded schedule space for
// every schedule in the canonical abort-schedule family (all single
// aborts over entry events 0..maxEvent, the same-process re-request
// doubles, and the cross-process pairs — see
// memsim.EnumerateAbortSchedules) on both memory models. It verifies
// that abort paths preserve mutual exclusion and deadlock freedom
// (the explorer's built-in checks), that withdrawal is wait-free
// (bounded own steps), and that non-aborting processes stay
// starvation-free (every explored run must complete within its step
// bound). The per-model, per-schedule verdicts are deterministic, so a
// failure report names both the abort schedule and the preemption
// schedule that produced it.
func CheckAbortable(b AbortableBuilder, n, entries, preemptions, maxEvent, maxRuns int) error {
	scheds := memsim.EnumerateAbortSchedules(n, maxEvent, true)
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for si, aborts := range scheds {
			opts := ExploreOptions{Preemptions: preemptions, MaxRuns: maxRuns, Workers: 1}
			e := AbortableCheckExplorer(b, model, n, entries, aborts, 0, opts)
			if res := e.Run(); res.Err != nil {
				return fmt.Errorf("harness: model %v, abort schedule %s (#%d of %d), schedule %v (run %d): %w",
					model, memsim.FormatAbortSchedule(aborts), si, len(scheds), res.FailingSchedule, res.Runs, res.Err)
			}
		}
	}
	return nil
}

// AbortablePlan makes a sweep cell abortable: SweepWith runs the cell
// through RunAbortable instead of Run. The plan's Build takes
// precedence over Cell.Build (which may be left nil).
type AbortablePlan struct {
	// Build constructs the abortable algorithm under test.
	Build AbortableBuilder
	// Points is the cell's pinned abort schedule.
	Points []memsim.AbortPoint
	// Retries and RetryDelay configure the re-request policy, as in
	// AbortWorkload.
	Retries    int
	RetryDelay int
}
