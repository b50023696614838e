package harness

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"fetchphi/internal/memsim"
)

// This file is the model-checking entry point of the harness: it wraps
// the memsim explorer around the standard acquire/CS/release workload
// and runs it over the memory models — sequentially (Check, the
// reference path every algorithm package calls from its tests) or
// sharded (CheckSharded, which explores the models concurrently and
// shards each model's schedule waves across a worker pool). Both paths
// produce bit-identical verdicts; CheckSharded only changes wall-clock
// time, which is what makes routinely model-checking the whole
// algorithm registry affordable.

// Default model-check bounds.
const (
	// DefaultCheckMaxRuns caps the schedules explored per model when
	// ExploreOptions.MaxRuns is zero.
	DefaultCheckMaxRuns = 500_000
	// DefaultCheckMaxSteps bounds each explored run when
	// ExploreOptions.MaxSteps is zero.
	DefaultCheckMaxSteps = 1_000_000
)

// ExploreOptions configures a model check.
type ExploreOptions struct {
	// Preemptions is the preemption bound K, taken literally: 0 means
	// an exactly non-preemptive exploration (one schedule per model),
	// not "use a default" — the zero value is honest.
	Preemptions int
	// MaxRuns caps the schedules explored per model
	// (default DefaultCheckMaxRuns).
	MaxRuns int
	// MaxSteps bounds each explored run (default DefaultCheckMaxSteps).
	MaxSteps int64
	// Workers is the wave-shard worker count per model; 0 or negative
	// selects runtime.GOMAXPROCS(0). The verdict is identical for
	// every value — workers change wall-clock time only.
	Workers int
	// Models are the memory models to check, in reporting order
	// (default CC then DSM). When several models fail, the first
	// failing model in this order is the one reported, keeping the
	// merged error deterministic.
	Models []memsim.Model
	// Progress, if non-nil, observes each model's exploration.
	// Observation-only; called concurrently from the models'
	// goroutines and their wave workers, so implementations
	// synchronize their own output.
	Progress func(memsim.Model, memsim.ExploreProgress)
	// ProgressEvery adds intra-wave progress events every this many
	// runs (0: wave boundaries only).
	ProgressEvery int
	// Checkpoint, when its Path is set, makes CheckSharded resumable
	// (see checkpoint.go).
	Checkpoint Checkpoint
}

// ModelReport pairs one memory model with its exploration outcome.
type ModelReport struct {
	Model  memsim.Model
	Result memsim.ExploreResult
}

// CheckExplorer builds the explorer for one model: n processes, each
// performing `entries` bare acquire/CS/release entries of the
// algorithm under test. It is exported because it is the single
// definition of the model-check workload: Check, CheckSharded, and any
// caller that drives an explorer itself must build machines through
// it, or their results would not be comparable, let alone
// bit-identical.
func CheckExplorer(b Builder, model memsim.Model, n, entries int, opts ExploreOptions) *memsim.Explorer {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultCheckMaxRuns
	}
	maxSteps := opts.MaxSteps
	if maxSteps <= 0 {
		maxSteps = DefaultCheckMaxSteps
	}
	e := &memsim.Explorer{
		Build: func() *memsim.Machine {
			m := memsim.NewMachine(model, n)
			alg := b(m)
			for i := 0; i < n; i++ {
				m.AddProc(fmt.Sprintf("p%d", i), func(p *memsim.Proc) {
					for e := 0; e < entries; e++ {
						alg.Acquire(p)
						p.EnterCS()
						p.ExitCS()
						alg.Release(p)
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
	}
	if opts.Progress != nil {
		e.Progress = func(p memsim.ExploreProgress) { opts.Progress(model, p) }
	}
	return e
}

// CheckFailure converts one model's failing exploration into the
// error Check has always reported. Exported so callers that drive an
// explorer themselves report byte-identical error messages.
func CheckFailure(model memsim.Model, res memsim.ExploreResult) error {
	return fmt.Errorf("harness: model %v, schedule %v (run %d): %w", model, res.FailingSchedule, res.Runs, res.Err)
}

// Check model-checks small configurations of the algorithm with
// preemption-bounded exhaustive exploration: every schedule of n
// processes × entries CS entries with up to `preemptions` forced
// context switches, on both models, one model at a time with a single
// worker. preemptions is taken literally — 0 requests an exactly
// non-preemptive check (it is no longer silently promoted to the
// default bound). Use CheckSharded to spend more cores on the same
// verdict.
func Check(b Builder, n, entries, preemptions, maxRuns int) error {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		opts := ExploreOptions{Preemptions: preemptions, MaxRuns: maxRuns, Workers: 1}
		if res := CheckExplorer(b, model, n, entries, opts).Run(); res.Err != nil {
			return CheckFailure(model, res)
		}
	}
	return nil
}

// CheckSharded is the parallel Check: the models explore concurrently,
// and within each model the schedule waves are sharded across
// opts.Workers workers with work stealing. The per-model results come
// back in opts.Models order with Runs, Exhausted, DepthRuns, and the
// canonical FailingSchedule bit-identical to a sequential exploration;
// when several models fail, the error reports the first failing model
// in that order. The reports are returned even on failure, so callers
// can record artifacts for failed checks too. With opts.Checkpoint.Path
// set, the check resumes from that checkpoint and persists every
// completed wave to it (see checkpoint.go); a checkpoint that cannot be
// read, resumed or written fails the check with no reports.
func CheckSharded(b Builder, n, entries int, opts ExploreOptions) ([]ModelReport, error) {
	models := opts.Models
	if len(models) == 0 {
		models = []memsim.Model{memsim.CC, memsim.DSM}
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	states := make([]memsim.ExploreState, len(models))
	for i := range states {
		states[i] = *memsim.NewExploreState()
	}
	var ck *checkpointer
	if opts.Checkpoint.Path != "" {
		ck = newCheckpointer(n, entries, opts, models)
		if err := ck.restore(states); err != nil {
			return nil, err
		}
	}
	saveErrs := make([]error, len(models))
	var wg sync.WaitGroup
	for i, model := range models {
		i, model := i, model
		wg.Add(1)
		go func() {
			defer wg.Done()
			e := CheckExplorer(b, model, n, entries, opts)
			for done := false; !done; {
				done = e.Wave(&states[i])
				if saveErrs[i] = ck.save(i, &states[i]); saveErrs[i] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(saveErrs...); err != nil {
		return nil, err
	}
	if ck != nil {
		if err := ck.artifact(true).WriteFile(ck.Path); err != nil {
			return nil, err
		}
	}
	reports := make([]ModelReport, len(models))
	for i, model := range models {
		reports[i] = ModelReport{Model: model, Result: states[i].Result}
	}
	for _, r := range reports {
		if r.Result.Err != nil {
			return reports, CheckFailure(r.Model, r.Result)
		}
	}
	return reports, nil
}
