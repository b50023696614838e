package main

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"fetchphi/internal/experiments"
	"fetchphi/internal/obs"
)

// The sweep digest covers simulated statistics only: a quick sweep
// gives the same digest at one and two sweep workers and on a repeat
// run, so the digest ignores every wall-clock field.
func TestQuickSweepDigestIgnoresWallClock(t *testing.T) {
	if testing.Short() {
		t.Skip("runs three quick sweeps")
	}
	exps := sweepSetup()
	var digests []string
	for _, workers := range []int{1, 2, 2} {
		rep := runSweep(sweepConfig{quick: true, seed: 1, workers: workers, dir: t.TempDir()}, exps, nil)
		if len(rep.errs) != 0 {
			t.Fatalf("quick sweep at %d workers: %v", workers, rep.errs)
		}
		if rep.reproduced == 0 {
			t.Fatalf("quick sweep at %d workers reproduced no claim", workers)
		}
		digests = append(digests, rep.digest)
	}
	if digests[0] != digests[1] || digests[1] != digests[2] {
		t.Fatalf("digests differ across worker counts and runs: %v", digests)
	}
}

// The seeds metrics.json keeps out of the sweep workload still fail
// the way it records. Once the program passes at one of them, this
// test fails, and the seed belongs back in sweep_seeds with its
// digest.
func TestFailingSeedsStillFail(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full experiments at each failing seed")
	}
	byID := map[string]experiments.Experiment{}
	for _, e := range sweepSetup() {
		byID[e.ID] = e
	}
	cat := loadCatalog()
	seeds := make([]string, 0, len(cat.FailingSeeds))
	for k := range cat.FailingSeeds {
		seeds = append(seeds, k)
	}
	sort.Strings(seeds)
	for _, k := range seeds {
		f := cat.FailingSeeds[k]
		var seed int64
		if _, err := fmt.Sscan(k, &seed); err != nil {
			t.Fatalf("failing seed %q: %v", k, err)
		}
		var exps []experiments.Experiment
		for _, id := range f.Experiments {
			exps = append(exps, byID[id])
		}
		rep := runSweep(sweepConfig{seed: seed, workers: 2, dir: t.TempDir()}, exps, nil)
		found := false
		for _, e := range rep.errs {
			found = found || strings.Contains(e, f.Failure)
		}
		if !found {
			t.Errorf("seed %d, %v: want a failure containing %q, got %q", seed, f.Experiments, f.Failure, rep.errs)
		}
	}
}

func TestDigestIgnoresWallClockFieldsAndOrder(t *testing.T) {
	cells := []obs.Cell{
		{Experiment: "E1", Algorithm: "a", Model: "CC", N: 2, Steps: 10},
		{Experiment: "E1", Algorithm: "b", Model: "DSM", N: 4, Steps: 20},
	}
	base := digest([]*obs.Artifact{{Experiment: "E1", Cells: cells}})
	swapped := []obs.Cell{cells[1], cells[0]}
	swapped[0].NsPerOp, swapped[0].WallClock = 123.4, true
	other := digest([]*obs.Artifact{{Experiment: "E1", Params: obs.Params{Workers: 7}, Cells: swapped}})
	if base != other {
		t.Error("digest changed with cell order, wall-clock fields or worker count")
	}
	cells[0].Steps++
	if digest([]*obs.Artifact{{Experiment: "E1", Cells: cells}}) == base {
		t.Error("digest ignored a simulated statistic")
	}
}
