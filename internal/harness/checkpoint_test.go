package harness

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fetchphi/internal/memsim"
	"fetchphi/internal/obs"
)

// ckModels is the model order every checkpoint test uses (the
// CheckSharded default).
var ckModels = []memsim.Model{memsim.CC, memsim.DSM}

// ckOptions is the shared small check, N=2 with two entries each,
// checkpointed to path.
func ckOptions(path string, maxRuns int) ExploreOptions {
	return ExploreOptions{
		Preemptions: 2, MaxRuns: maxRuns, Workers: 2,
		Checkpoint: Checkpoint{Path: path, Algorithm: "test", CreatedBy: "golden"},
	}
}

// writeMidCheckpoint writes the checkpoint an interrupted check would
// have left behind after waves[i] completed waves of model i, by
// stepping each model's explorer directly. A model that finishes within
// its budget is recorded as done.
func writeMidCheckpoint(t *testing.T, b Builder, opts ExploreOptions, waves []int) {
	t.Helper()
	ck := newCheckpointer(2, 2, opts, ckModels)
	for i, model := range ckModels {
		e := CheckExplorer(b, model, 2, 2, opts)
		st := memsim.NewExploreState()
		for w := 0; w < waves[i] && !e.Wave(st); w++ {
		}
		ck.states[i] = *st
	}
	if err := ck.artifact(false).WriteFile(opts.Checkpoint.Path); err != nil {
		t.Fatal(err)
	}
}

// assertSameReports checks Runs, Exhausted, DepthRuns and
// FailingSchedule bit-identical and errors message-identical (a
// restored failure keeps its message, not its concrete type).
func assertSameReports(t *testing.T, label string, got, ref []ModelReport, gotErr, refErr error) {
	t.Helper()
	if (gotErr != nil) != (refErr != nil) || (gotErr != nil && gotErr.Error() != refErr.Error()) {
		t.Fatalf("%s: error %v, want %v", label, gotErr, refErr)
	}
	if len(got) != len(ref) {
		t.Fatalf("%s: %d reports, want %d", label, len(got), len(ref))
	}
	for i := range got {
		g, r := got[i], ref[i]
		if g.Model != r.Model || g.Result.Runs != r.Result.Runs ||
			g.Result.Exhausted != r.Result.Exhausted ||
			!reflect.DeepEqual(g.Result.DepthRuns, r.Result.DepthRuns) ||
			!reflect.DeepEqual(g.Result.FailingSchedule, r.Result.FailingSchedule) {
			t.Fatalf("%s: model %v diverged:\n got %+v\nwant %+v", label, g.Model, g.Result, r.Result)
		}
		if (g.Result.Err != nil) != (r.Result.Err != nil) ||
			(g.Result.Err != nil && g.Result.Err.Error() != r.Result.Err.Error()) {
			t.Fatalf("%s: model %v error %v, want %v", label, g.Model, g.Result.Err, r.Result.Err)
		}
	}
}

// resumeGolden runs the check uninterrupted with a checkpoint, then
// resumes it from every combination of per-model interruption points
// up to maxWaves, and requires each resumed run to report what the
// plain check reports, to re-run no wave the checkpoint had completed,
// and to leave a final artifact byte-identical to the uninterrupted
// one.
func resumeGolden(t *testing.T, b Builder, maxRuns, maxWaves int) {
	dir := t.TempDir()
	ref, refErr := CheckSharded(b, 2, 2, ExploreOptions{Preemptions: 2, MaxRuns: maxRuns, Workers: 1})

	fullPath := filepath.Join(dir, "full.json")
	got, err := CheckSharded(b, 2, 2, ckOptions(fullPath, maxRuns))
	assertSameReports(t, "uninterrupted", got, ref, err, refErr)
	full, readErr := os.ReadFile(fullPath)
	if readErr != nil {
		t.Fatal(readErr)
	}

	for cc := 0; cc <= maxWaves; cc++ {
		for dsm := 0; dsm <= maxWaves; dsm++ {
			label := fmt.Sprintf("resumed after CC wave %d, DSM wave %d", cc, dsm)
			opts := ckOptions(filepath.Join(dir, fmt.Sprintf("resume-%d-%d.json", cc, dsm)), maxRuns)
			writeMidCheckpoint(t, b, opts, []int{cc, dsm})
			mid, err := obs.ReadExploreArtifact(opts.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			if mid.Checkpoint.Complete {
				t.Fatalf("%s: interrupted checkpoint claims completion", label)
			}

			var mu sync.Mutex
			minDepth := map[memsim.Model]int{memsim.CC: 1 << 30, memsim.DSM: 1 << 30}
			opts.Progress = func(model memsim.Model, p memsim.ExploreProgress) {
				mu.Lock()
				defer mu.Unlock()
				minDepth[model] = min(minDepth[model], p.Depth)
			}
			got, err := CheckSharded(b, 2, 2, opts)
			assertSameReports(t, label, got, ref, err, refErr)
			for i, model := range ckModels {
				if ck := mid.Checkpoint.Models[i]; minDepth[model] < ck.NextDepth {
					t.Fatalf("%s: re-ran %v wave %d, which the checkpoint had completed", label, model, minDepth[model])
				}
			}
			resumed, err := os.ReadFile(opts.Checkpoint.Path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(full, resumed) {
				t.Fatalf("%s: final artifact differs from the uninterrupted run:\n--- full ---\n%s\n--- resumed ---\n%s", label, full, resumed)
			}
		}
	}
}

// TestCheckpointResumeGolden: interrupt after any wave of either model,
// resume, and the final artifact is byte-identical to an uninterrupted
// run.
func TestCheckpointResumeGolden(t *testing.T) {
	resumeGolden(t, newFakeLock, 0, 4)
}

// TestCheckpointResumeKeepsFailingSchedule: a checkpoint whose model
// already failed resumes to the same canonical FailingSchedule and
// error message, and the still-running model fails identically too.
func TestCheckpointResumeKeepsFailingSchedule(t *testing.T) {
	_, err := CheckSharded(newBrokenLock, 2, 2, ExploreOptions{Preemptions: 2, Workers: 1})
	if err == nil {
		t.Fatal("broken lock passed")
	}
	resumeGolden(t, newBrokenLock, 0, 3)

	// Pin that the interesting case is covered: CC recorded as failed
	// and done while DSM is still mid-check.
	path := filepath.Join(t.TempDir(), "failed.json")
	writeMidCheckpoint(t, newBrokenLock, ckOptions(path, 0), []int{3, 1})
	mid, err := obs.ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if cc, dsm := mid.Checkpoint.Models[0], mid.Checkpoint.Models[1]; !cc.Done || dsm.Done {
		t.Fatalf("checkpoint models: CC %+v, DSM %+v", cc, dsm)
	}
	if len(mid.Models) != 1 || mid.Models[0].Failure == "" {
		t.Fatalf("failed CC model not recorded: %+v", mid.Models)
	}
}

// TestCheckpointHonorsMaxRuns: a checkpointed check, resumed or not,
// stops at the same canonical MaxRuns prefix as the plain check.
func TestCheckpointHonorsMaxRuns(t *testing.T) {
	for _, maxRuns := range []int{1, 2, 7, 50} {
		t.Run(fmt.Sprint(maxRuns), func(t *testing.T) {
			resumeGolden(t, newFakeLock, maxRuns, 3)
			path := filepath.Join(t.TempDir(), "capped.json")
			reports, err := CheckSharded(newFakeLock, 2, 2, ckOptions(path, maxRuns))
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reports {
				if r.Result.Runs != maxRuns || r.Result.Exhausted {
					t.Fatalf("model %v: %+v, want a %d-run capped prefix", r.Model, r.Result, maxRuns)
				}
			}
		})
	}
}

// TestCheckpointRefusesForeignConfig: resuming under a different
// configuration, or from an artifact without the checkpoint extension,
// fails instead of silently corrupting the merge.
func TestCheckpointRefusesForeignConfig(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt.json")
	if _, err := CheckSharded(newFakeLock, 2, 2, ckOptions(path, 0)); err != nil {
		t.Fatal(err)
	}
	other := ckOptions(path, 0)
	other.Preemptions = 1
	if _, err := CheckSharded(newFakeLock, 2, 2, other); err == nil || !strings.Contains(err.Error(), "refusing to resume") {
		t.Fatalf("foreign configuration accepted: %v", err)
	}
	swapped := ckOptions(path, 0)
	swapped.Models = []memsim.Model{memsim.DSM, memsim.CC}
	if _, err := CheckSharded(newFakeLock, 2, 2, swapped); err == nil || !strings.Contains(err.Error(), "configures") {
		t.Fatalf("foreign model order accepted: %v", err)
	}

	plain := filepath.Join(dir, "plain.json")
	if err := (&obs.ExploreArtifact{Algorithm: "test"}).WriteFile(plain); err != nil {
		t.Fatal(err)
	}
	if _, err := CheckSharded(newFakeLock, 2, 2, ckOptions(plain, 0)); err == nil || !strings.Contains(err.Error(), "not a checkpoint") {
		t.Fatalf("artifact without a checkpoint accepted: %v", err)
	}
}
