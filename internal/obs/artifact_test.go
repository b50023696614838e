package obs

import (
	"os"
	"path/filepath"
	"testing"
)

// sampleArtifact builds a small but fully populated artifact.
func sampleArtifact() *Artifact {
	mkHist := func(vals ...int64) Histogram {
		var h Histogram
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	mkCell := func(alg, model string, n int, seed int64, worst int64, mean float64, spins int64) Cell {
		return Cell{
			Experiment: "E1", Algorithm: alg, Model: model, N: n, Entries: 4, Seed: seed,
			MeanRMR: mean, WorstRMR: worst, NonLocalSpins: spins, MaxBypass: 3, Steps: 1234,
			Hotspots: []HotVar{{Name: "lock.tail", RMRs: 64}, {Name: "lock.grant[0]", RMRs: 32}},
			Run: RunMetrics{
				Entries: 4 * int64(n), TotalRMRs: int64(mean * 4 * float64(n)),
				PhaseRMRs:   map[string]int64{"entry": 40, "exit": 10},
				RMRPerEntry: mkHist(10, 12, 14, worst),
			},
		}
	}
	return &Artifact{
		Schema:     Schema,
		Experiment: "E1",
		CreatedBy:  "test",
		Commit:     "deadbeef",
		Params:     Params{Quick: true, Seed: 1, Workers: 4},
		Cells: []Cell{
			mkCell("g-cc/f&i", "CC", 8, 1, 17, 12.5, 0),
			mkCell("g-cc/f&s", "CC", 8, 1, 19, 13.0, 0),
			mkCell("g-cc/f&i", "CC", 32, 1, 18, 12.8, 0),
		},
		Tables: []Table{{
			ID: "E1", Title: "t", Columns: []string{"N", "mean"},
			Rows: [][]string{{"8", "12.5"}}, Notes: []string{"note"},
		}},
	}
}

// TestArtifactRoundTrip: a round-tripped bench artifact gates clean
// against itself (TestCodec covers the codec's own properties).
func TestArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), ArtifactName("E1"))
	a := sampleArtifact()
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Compare(a, got, nil); len(regs) != 0 {
		t.Fatalf("self-comparison regressed: %v", regs)
	}
}

func TestArtifactWriteCreatesDirsAndSorts(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifacts", "nested", ArtifactName("E1"))
	a := sampleArtifact()
	// Shuffle the canonical order; WriteFile must restore it.
	a.Cells[0], a.Cells[2] = a.Cells[2], a.Cells[0]
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got.Cells); i++ {
		if got.Cells[i-1].Key() >= got.Cells[i].Key() {
			t.Fatalf("cells not in canonical order: %q ≥ %q", got.Cells[i-1].Key(), got.Cells[i].Key())
		}
	}
}

// TestReadArtifactDirMixedSchemas: artifact directories legitimately
// hold bench artifacts next to fetchphi.trace/v1 dumps, a
// fetchphi.claims/v1 verdict file, and non-JSON files. The directory
// reader must load exactly the bench artifacts and skip the rest.
func TestReadArtifactDirMixedSchemas(t *testing.T) {
	dir := t.TempDir()
	e1 := sampleArtifact()
	if err := e1.WriteFile(filepath.Join(dir, ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	e2 := sampleArtifact()
	e2.Experiment = "E2"
	for i := range e2.Cells {
		e2.Cells[i].Experiment = "E2"
	}
	if err := e2.WriteFile(filepath.Join(dir, ArtifactName("E2"))); err != nil {
		t.Fatal(err)
	}
	foreign := map[string]string{
		"TRACE_E1.json": `{"schema": "fetchphi.trace/v1", "spans": []}`,
		"CLAIMS.json":   `{"schema": "fetchphi.claims/v1", "claims": []}`,
		"README.txt":    "not json at all",
	}
	for name, body := range foreign {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.Mkdir(filepath.Join(dir, "traces"), 0o755); err != nil {
		t.Fatal(err)
	}

	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatalf("ReadArtifactDir on a mixed dir: %v", err)
	}
	if len(arts) != 2 {
		t.Fatalf("loaded %d artifacts, want 2", len(arts))
	}
	if arts[0].Experiment != "E1" || arts[1].Experiment != "E2" {
		t.Fatalf("artifacts not sorted by experiment: %s, %s", arts[0].Experiment, arts[1].Experiment)
	}
}

// TestReadArtifactDirRejectsTruncatedJSON: unparseable JSON is a
// corrupt artifact, never silently skipped.
func TestReadArtifactDirRejectsTruncatedJSON(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "BENCH_E1.json"), []byte(`{"schema": "fetchphi.be`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadArtifactDir(dir); err == nil {
		t.Fatal("truncated JSON was silently skipped")
	}
}

// TestGateOverMixedDir: the regression gate consumes directory reads,
// so a baseline directory carrying trace and claims files must gate
// exactly as a bench-only one does — including still catching a real
// regression.
func TestGateOverMixedDir(t *testing.T) {
	dir := t.TempDir()
	base := sampleArtifact()
	if err := base.WriteFile(filepath.Join(dir, ArtifactName("E1"))); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "CLAIMS.json"),
		[]byte(`{"schema": "fetchphi.claims/v1", "claims": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	arts, err := ReadArtifactDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) != 1 {
		t.Fatalf("loaded %d artifacts, want 1", len(arts))
	}
	if regs := Compare(arts[0], base, nil); len(regs) != 0 {
		t.Fatalf("clean self-comparison regressed: %v", regs)
	}
	worse := sampleArtifact()
	worse.Cells[0].WorstRMR *= 3
	if regs := Compare(arts[0], worse, nil); len(regs) == 0 {
		t.Fatal("gate over a dir-read baseline missed a 3x worst-RMR regression")
	}
}

func TestCellKeyUniquenessAcrossDims(t *testing.T) {
	a := sampleArtifact()
	seen := map[string]bool{}
	for _, c := range a.Cells {
		if seen[c.Key()] {
			t.Fatalf("duplicate key %q", c.Key())
		}
		seen[c.Key()] = true
	}
}
