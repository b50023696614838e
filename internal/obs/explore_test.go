package obs

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func sampleExplore() *ExploreArtifact {
	return &ExploreArtifact{
		Algorithm: "g-dsm", CreatedBy: "test",
		N: 2, Entries: 2, Preemptions: 2, MaxRuns: 500_000, Workers: 8,
		Models: []ExploreModel{
			{Model: "CC", Runs: 1234, Exhausted: true, DepthRuns: []int{1, 45, 1188}},
			{Model: "DSM", Runs: 987, Exhausted: true, DepthRuns: []int{1, 40, 946}},
		},
		WallMS: 41.5, SchedulesPerSec: 53500,
	}
}

// sampleCheckpoint is a mid-check resumable record: CC still at its
// root schedule, DSM two waves in.
func sampleCheckpoint() *ExploreArtifact {
	art := sampleExplore()
	art.Models = nil
	art.WallMS, art.SchedulesPerSec = 0, 0
	art.Checkpoint = &ExploreCheckpoint{
		Models: []ExploreModelCheckpoint{
			{Model: "CC", NextDepth: 0, Frontier: [][]ExplorePreemption{nil}},
			{Model: "DSM", NextDepth: 2, Runs: 46, DepthRuns: []int{1, 45},
				Frontier: [][]ExplorePreemption{
					{{Step: 3, Proc: 1}, {Step: 9, Proc: 0}},
					{{Step: 3, Proc: 1}, {Step: 11, Proc: 0}},
				}},
		},
	}
	return art
}

// TestExploreArtifactRoundTrip: the coverage helpers read the same
// totals from a round-tripped artifact.
func TestExploreArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), ExploreArtifactName("g-dsm"))
	if err := sampleExplore().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalRuns() != 1234+987 {
		t.Fatalf("TotalRuns = %d", got.TotalRuns())
	}
	if !got.AllExhausted() {
		t.Fatal("AllExhausted = false")
	}
}

func TestExploreArtifactNameFlattensVariants(t *testing.T) {
	if got := ExploreArtifactName("g-cc/fas"); got != "EXPLORE_g-cc-fas.json" {
		t.Fatalf("ExploreArtifactName = %q", got)
	}
	if strings.ContainsAny(ExploreArtifactName("t/fas"), "/") {
		t.Fatal("artifact name contains a path separator")
	}
}

func TestExploreAllExhausted(t *testing.T) {
	a := sampleExplore()
	a.Models[1].Exhausted = false
	if a.AllExhausted() {
		t.Fatal("AllExhausted true with a non-exhausted model")
	}
	empty := &ExploreArtifact{}
	if empty.AllExhausted() {
		t.Fatal("AllExhausted true with no models")
	}
}

// TestReadArtifactDirSkipsExploreArtifacts: the bench-artifact loader
// must keep skipping foreign schemas when explore artifacts sit in the
// same directory.
func TestReadArtifactDirSkipsExploreArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := sampleExplore().WriteFile(filepath.Join(dir, ExploreArtifactName("g-dsm"))); err != nil {
		t.Fatal(err)
	}
	bench := &Artifact{Experiment: "E1"}
	if err := bench.WriteFile(filepath.Join(dir, ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 || arts[0].Experiment != "E1" {
		t.Fatalf("ReadArtifactDir = %+v", arts)
	}
}

// TestExploreCheckpointRoundTrip pins the resumable-campaign
// extension: the frontier (including the fresh model's single empty
// schedule, which must stay nil through JSON so replayed
// FailingSchedules stay bit-identical) survives a write/read cycle.
func TestExploreCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.json")
	art := sampleCheckpoint()
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadExploreArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Checkpoint, art.Checkpoint) {
		t.Fatalf("checkpoint round trip diverged:\n got %+v\nwant %+v", got.Checkpoint, art.Checkpoint)
	}
	if got.Checkpoint.Models[0].Frontier[0] != nil {
		t.Fatal("empty root schedule did not stay nil through JSON")
	}
	// A checkpoint-free artifact keeps its old wire shape.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"checkpoint\"") {
		t.Fatal("checkpoint field missing from serialized artifact")
	}
}
