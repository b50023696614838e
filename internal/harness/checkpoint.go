package harness

import (
	"errors"
	"fmt"
	"os"
	"sync"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// This file is the resumable half of CheckSharded: between waves it
// persists every model's memsim.ExploreState as a fetchphi.explore/v1
// artifact with the checkpoint extension, and at start it resumes from
// such an artifact. Waves are the checkpoint granule — a wave either
// completed (its children are the saved frontier) or it re-runs in
// full, which is safe because wave execution is a pure function of the
// machine. The artifact carries no wall-clock fields, so the final
// artifact of a resumed check is byte-identical to an uninterrupted
// one.

// Checkpoint configures the resumable record of a model check.
type Checkpoint struct {
	// Path is the checkpoint artifact: loaded (and checked against the
	// check's configuration) at start if it exists, rewritten
	// atomically after every completed wave, and left behind as the
	// final artifact with Checkpoint.Complete=true. Empty disables
	// checkpointing.
	Path string
	// Algorithm names the algorithm under test. It is part of the
	// configuration a resumed check must match.
	Algorithm string
	// CreatedBy and Commit stamp the artifact header.
	CreatedBy string
	Commit    string
}

// Record converts one model's exploration outcome into its explore
// artifact record.
func (r ModelReport) Record() obs.ExploreModel {
	em := obs.ExploreModel{
		Model:     r.Model.String(),
		Runs:      r.Result.Runs,
		Exhausted: r.Result.Exhausted,
		DepthRuns: r.Result.DepthRuns,
	}
	if r.Result.Err != nil {
		em.Failure = r.Result.Err.Error()
		em.FailingSchedule = toWire(r.Result.FailingSchedule)
	}
	return em
}

// checkpointer persists the per-model exploration states of one
// CheckSharded call. The models explore concurrently, so every write
// happens under mu, from the latest completed-wave state of each model.
type checkpointer struct {
	Checkpoint
	n, entries, preemptions, maxRuns int
	models                           []memsim.Model

	mu     sync.Mutex
	states []memsim.ExploreState
}

func newCheckpointer(n, entries int, opts ExploreOptions, models []memsim.Model) *checkpointer {
	maxRuns := opts.MaxRuns
	if maxRuns <= 0 {
		maxRuns = DefaultCheckMaxRuns
	}
	return &checkpointer{
		Checkpoint: opts.Checkpoint,
		n:          n, entries: entries, preemptions: opts.Preemptions, maxRuns: maxRuns,
		models: models,
		states: make([]memsim.ExploreState, len(models)),
	}
}

// save records model i's state after a wave and rewrites the artifact.
// A nil checkpointer saves nothing.
func (c *checkpointer) save(i int, st *memsim.ExploreState) error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.states[i] = *st
	return c.artifact(false).WriteFile(c.Path)
}

// artifact serializes the recorded states. Done models appear in
// Models; in-progress models live only in the checkpoint extension.
func (c *checkpointer) artifact(complete bool) *obs.ExploreArtifact {
	art := &obs.ExploreArtifact{
		Schema:    obs.ExploreSchema,
		Algorithm: c.Algorithm,
		CreatedBy: c.CreatedBy,
		Commit:    c.Commit,
		N:         c.n, Entries: c.entries, Preemptions: c.preemptions,
		MaxRuns:    c.maxRuns,
		Checkpoint: &obs.ExploreCheckpoint{Complete: complete},
	}
	for i, st := range c.states {
		ck := obs.ExploreModelCheckpoint{
			Model:     c.models[i].String(),
			Done:      st.Done,
			NextDepth: st.Depth,
			Runs:      st.Result.Runs,
			DepthRuns: append([]int(nil), st.Result.DepthRuns...),
		}
		if st.Done {
			art.Models = append(art.Models, ModelReport{Model: c.models[i], Result: st.Result}.Record())
		} else {
			ck.Frontier = make([][]obs.ExplorePreemption, len(st.Frontier))
			for j, s := range st.Frontier {
				ck.Frontier[j] = toWire(s)
			}
		}
		art.Checkpoint.Models = append(art.Checkpoint.Models, ck)
	}
	return art
}

// restore loads the checkpoint artifact, when one exists, into states
// (fresh, in model order) and records them as the starting point. The
// checkpoint's configuration must match the check's: resuming under a
// different configuration would silently corrupt the merge.
func (c *checkpointer) restore(states []memsim.ExploreState) error {
	defer copy(c.states, states)
	if _, err := os.Stat(c.Path); err != nil {
		return nil
	}
	art, err := obs.ReadExploreArtifact(c.Path)
	if err != nil {
		return err
	}
	if art.Checkpoint == nil {
		return fmt.Errorf("harness: %s is not a checkpoint artifact (no checkpoint extension)", c.Path)
	}
	if art.Algorithm != c.Algorithm || art.N != c.n || art.Entries != c.entries ||
		art.Preemptions != c.preemptions || art.MaxRuns != c.maxRuns {
		return fmt.Errorf("harness: checkpoint %s was written for alg=%s n=%d entries=%d preemptions=%d maxruns=%d; refusing to resume with a different configuration",
			c.Path, art.Algorithm, art.N, art.Entries, art.Preemptions, art.MaxRuns)
	}
	if len(art.Checkpoint.Models) != len(c.models) {
		return fmt.Errorf("harness: checkpoint %s covers %d models, the check configures %d", c.Path, len(art.Checkpoint.Models), len(c.models))
	}
	finals := make(map[string]obs.ExploreModel, len(art.Models))
	for _, em := range art.Models {
		finals[em.Model] = em
	}
	for i, ck := range art.Checkpoint.Models {
		if ck.Model != c.models[i].String() {
			return fmt.Errorf("harness: checkpoint model %d is %q, the check configures %q", i, ck.Model, c.models[i])
		}
		st := memsim.ExploreState{Depth: ck.NextDepth, Done: ck.Done}
		if !ck.Done {
			st.Frontier = make([][]memsim.Preemption, len(ck.Frontier))
			for j, s := range ck.Frontier {
				st.Frontier[j] = fromWire(s)
			}
			st.Result = memsim.ExploreResult{Runs: ck.Runs, DepthRuns: append([]int(nil), ck.DepthRuns...)}
			states[i] = st
			continue
		}
		em, ok := finals[ck.Model]
		if !ok {
			return fmt.Errorf("harness: checkpoint marks model %s done but the artifact has no final record for it", ck.Model)
		}
		st.Result = memsim.ExploreResult{
			Runs:      em.Runs,
			Exhausted: em.Exhausted,
			DepthRuns: append([]int(nil), em.DepthRuns...),
		}
		if em.Failure != "" {
			st.Result.Err = errors.New(em.Failure)
			st.Result.FailingSchedule = fromWire(em.FailingSchedule)
		}
		states[i] = st
	}
	return nil
}

// toWire converts a schedule to its artifact form, preserving nil: the
// empty root schedule serializes as null.
func toWire(s []memsim.Preemption) []obs.ExplorePreemption {
	if s == nil {
		return nil
	}
	out := make([]obs.ExplorePreemption, len(s))
	for i, p := range s {
		out[i] = obs.ExplorePreemption{Step: p.Step, Proc: p.Proc}
	}
	return out
}

// fromWire inverts toWire, preserving nil.
func fromWire(s []obs.ExplorePreemption) []memsim.Preemption {
	if s == nil {
		return nil
	}
	out := make([]memsim.Preemption, len(s))
	for i, p := range s {
		out[i] = memsim.Preemption{Step: p.Step, Proc: p.Proc}
	}
	return out
}
