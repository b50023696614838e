package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// program must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(spec.EndToEnd), len(endToEnd))
	}
	for i, m := range spec.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s %s, program %s %s",
				i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	cat := loadCatalog()
	if len(spec.PerLayer) != len(cat.PerLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, metrics.json %d", len(spec.PerLayer), len(cat.PerLayer))
	}
	for i, m := range spec.PerLayer {
		c := cat.PerLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, metrics.json %s %s %s", i, m, c.Name, c.Unit, c.Better)
		}
		if c.Moves == "" || len(c.Workloads) == 0 {
			t.Errorf("metrics.json: %s lacks what it moves or where", c.Name)
		}
		for _, w := range c.Workloads {
			if workloads[w] == nil {
				t.Errorf("metrics.json: %s names unknown workload %q", c.Name, w)
			}
		}
	}
}

// runInTemp runs the command in a fresh directory, as the benchmark
// runs from a checkout root, and returns its exit code, its output and
// the decoded last line.
func runInTemp(t *testing.T, args ...string) (int, string, map[string]metric) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	out := stdout.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var last struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}
	if code != 2 {
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
			t.Fatalf("last line is not the result: %v\n%s", err, out)
		}
		if last.Correct != (last.Failed == 0) || last.Attempted < 1 {
			t.Errorf("inconsistent result line: %s", lines[len(lines)-1])
		}
	}
	if entries, _ := os.ReadDir(filepath.Join(".bench_build")); len(entries) != 0 {
		t.Errorf("scratch artifacts left behind: %v", entries)
	}
	return code, out + stderr.String(), last.Metrics
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "native", "--trace", "2"},
		{"--workload", "native", "--seconds", "0"},
	} {
		if code, out, _ := runInTemp(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2\n%s", args, code, out)
		}
	}
}

// A short native run prints every end-to-end metric untraced and every
// per-layer metric traced, nonzero wherever metrics.json says the
// metric applies to the workload.
func TestNativeRunPrintsEveryMetric(t *testing.T) {
	code, out, ms := runInTemp(t, "--workload", "native", "--seconds", "0.2", "--trace", "0")
	if code != 0 {
		t.Fatalf("untraced run: exit %d\n%s", code, out)
	}
	for _, m := range endToEnd {
		if got, ok := ms[m.name]; !ok || got.Unit != m.unit || got.Value <= 0 {
			t.Errorf("untraced %s = %+v, want a positive value in %s", m.name, got, m.unit)
		}
	}
	if len(ms) != len(endToEnd) {
		t.Errorf("untraced run printed %d metrics, want %d", len(ms), len(endToEnd))
	}

	code, out, ms = runInTemp(t, "--workload", "native", "--seconds", "0.2", "--trace", "1")
	if code != 0 {
		t.Fatalf("traced run: exit %d\n%s", code, out)
	}
	cat := loadCatalog()
	if len(ms) != len(cat.PerLayer) {
		t.Errorf("traced run printed %d metrics, want %d", len(ms), len(cat.PerLayer))
	}
	for _, c := range cat.PerLayer {
		got, ok := ms[c.Name]
		if !ok || got.Unit != c.Unit {
			t.Errorf("traced %s = %+v, want unit %s", c.Name, got, c.Unit)
			continue
		}
		applies := false
		for _, w := range c.Workloads {
			applies = applies || w == "native"
		}
		switch {
		case c.Name == "fail_ratio" || c.Name == "trace.overhead_s":
		case applies && got.Value == 0:
			t.Errorf("traced %s reads 0 on native", c.Name)
		case !applies && got.Value != 0:
			t.Errorf("traced %s reads %v on native, where it does not apply", c.Name, got.Value)
		}
	}
}

// Every seed the sweep workload runs has a recorded digest and is not a
// known failing seed, and workload seed 1 runs experiments seed 1.
func TestSweepSeeds(t *testing.T) {
	cat := loadCatalog()
	if len(cat.SweepSeeds) == 0 {
		t.Fatal("metrics.json lists no sweep seeds")
	}
	for _, s := range cat.SweepSeeds {
		k := fmt.Sprint(s)
		if cat.SweepDigests[k] == "" {
			t.Errorf("sweep seed %d has no recorded digest", s)
		}
		if _, bad := cat.FailingSeeds[k]; bad {
			t.Errorf("sweep seed %d is a known failing seed", s)
		}
	}
	if got := cat.sweepSeed(1); got != 1 {
		t.Errorf("workload seed 1 runs experiments seed %d, want 1", got)
	}
	for _, n := range []int64{-12, -1, 0, 4, 6, 9, 1 << 40} {
		s := cat.sweepSeed(n)
		if s != cat.sweepSeed(n+int64(len(cat.SweepSeeds))) {
			t.Errorf("workload seeds %d and %d+len differ", n, n)
		}
		if _, bad := cat.FailingSeeds[fmt.Sprint(s)]; bad {
			t.Errorf("workload seed %d runs failing seed %d", n, s)
		}
	}
}
