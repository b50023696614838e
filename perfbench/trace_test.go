package main

import (
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestCheckNesting(t *testing.T) {
	ok := []span{
		{layer: "bench", parent: -1, start: 0, end: ms(10)},
		{layer: "experiments", parent: 0, start: ms(1), end: ms(9)},
		{layer: "harness.cell", parent: 1, start: ms(1), end: ms(9)},
	}
	if err := checkNesting(ok); err != nil {
		t.Fatalf("nested spans rejected: %v", err)
	}
	escaping := append(append([]span(nil), ok...), span{layer: "harness.cell", parent: 1, start: ms(8), end: ms(11)})
	if checkNesting(escaping) == nil {
		t.Error("a child ending after its parent was accepted")
	}
	open := append(append([]span(nil), ok...), span{layer: "obs", parent: 0, start: ms(9), end: -1})
	if checkNesting(open) == nil {
		t.Error("an unclosed span was accepted")
	}
}

func TestSelfTimesSumToWall(t *testing.T) {
	// A sweep-like tree: two overlapping cells under one experiment,
	// then a span of another layer, with gaps only the root covers.
	spans := []span{
		{layer: "bench", parent: -1, start: 0, end: ms(100)},
		{layer: "experiments", parent: 0, start: ms(10), end: ms(70)},
		{layer: "harness.cell", parent: 1, start: ms(10), end: ms(50)},
		{layer: "harness.cell", parent: 1, start: ms(20), end: ms(60)},
		{layer: "claims", parent: 0, start: ms(80), end: ms(95)},
	}
	self := selfTimes(spans)
	want := map[string]time.Duration{"bench": ms(25), "experiments": ms(10), "harness.cell": ms(50), "claims": ms(15)}
	var sum time.Duration
	for layer, d := range self {
		sum += d
		if d != want[layer] {
			t.Errorf("self time of %s = %v, want %v", layer, d, want[layer])
		}
	}
	if sum != ms(100) {
		t.Errorf("self times sum to %v, want the root's 100ms", sum)
	}
	if busy := layerBusy(spans, "harness.cell"); busy != ms(80) {
		t.Errorf("cell busy time = %v, want 80ms", busy)
	}
}

// A traced quick sweep records properly nested spans whose cell busy
// time fits in workers × wall and whose self times add up to the
// sweep's wall time.
func TestTracedSweepSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a quick sweep")
	}
	const workers = 2
	tr := newTracer()
	rep := runSweep(sweepConfig{quick: true, seed: 1, workers: workers, dir: t.TempDir()}, sweepSetup(), tr)
	if len(rep.errs) != 0 {
		t.Fatalf("quick sweep: %v", rep.errs)
	}
	spans := tr.snapshot()
	if err := checkNesting(spans); err != nil {
		t.Fatal(err)
	}
	var cells int64
	for _, s := range spans {
		if s.layer == "harness.cell" {
			cells++
		}
	}
	if cells != rep.cells {
		t.Errorf("%d cell spans for %d recorded cells", cells, rep.cells)
	}
	root := spans[0]
	if root.parent != -1 || root.layer != "bench" {
		t.Fatalf("first span is %+v, want the sweep root", root)
	}
	wall := root.end - root.start
	if busy := layerBusy(spans, "harness.cell"); busy > workers*wall {
		t.Errorf("cell busy time %v exceeds %d workers × wall %v", busy, workers, wall)
	}
	var sum time.Duration
	for _, d := range selfTimes(spans) {
		sum += d
	}
	if sum != wall {
		t.Errorf("self times sum to %v, want the sweep's wall time %v", sum, wall)
	}
}
