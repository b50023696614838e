package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

// stressFixture builds a two-row artifact with plausible numbers.
func stressFixture() *StressArtifact {
	var acq Histogram
	for _, ns := range []int64{120, 450, 900, 12_000} {
		acq.Observe(ns)
	}
	return &StressArtifact{
		Schema:     StressSchema,
		CreatedBy:  "test",
		GOMAXPROCS: 1,
		Iters:      1000,
		Locks: []StressLock{
			{Lock: "ticket", Workers: 4, WindowOps: 250, Ops: 4000, ElapsedMS: 10,
				OpsPerSec: 400_000, AcquireP50NS: 450, AcquireP99NS: 12_000,
				JainIndex: 0.99, MinWindowJain: 0.97, AcquireNS: acq},
			{Lock: "mcs", Workers: 4, WindowOps: 250, Ops: 4000, ElapsedMS: 12,
				OpsPerSec: 330_000, AcquireP50NS: 500, AcquireP99NS: 9_000,
				JainIndex: 1.0, MinWindowJain: 0.99, AcquireNS: acq},
		},
	}
}

// TestStressArtifactRoundTrip: rows come back normalized, with their
// latency histograms.
func TestStressArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "STRESS.json")
	art := stressFixture()
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadStressArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Locks) != 2 {
		t.Fatalf("round trip: %+v", got)
	}
	// Normalize sorted mcs before ticket.
	if got.Locks[0].Lock != "mcs" || got.Locks[1].Lock != "ticket" {
		t.Fatalf("rows not normalized: %s, %s", got.Locks[0].Lock, got.Locks[1].Lock)
	}
	if got.Locks[1].AcquireNS.Count != 4 {
		t.Fatalf("histogram lost in round trip: %+v", got.Locks[1].AcquireNS)
	}
}

// TestStressNormalizeOrdersByLockThenWorkers: sweep rows of the same
// lock sort by worker count.
func TestStressNormalizeOrdersByLockThenWorkers(t *testing.T) {
	art := &StressArtifact{Locks: []StressLock{
		{Lock: "mcs", Workers: 8},
		{Lock: "clh", Workers: 2},
		{Lock: "mcs", Workers: 2},
	}}
	art.Normalize()
	want := []string{"clh@2", "mcs@2", "mcs@8"}
	for i, l := range art.Locks {
		if stressKey(l) != want[i] {
			t.Fatalf("row %d = %s, want %s", i, stressKey(l), want[i])
		}
	}
}

// TestCompareStressPassesOnSelf: the self-compare gate (stress-smoke's
// second leg) is clean.
func TestCompareStressPassesOnSelf(t *testing.T) {
	art := stressFixture()
	if regs := CompareStress(art, art, 0.5); len(regs) != 0 {
		t.Fatalf("self-compare regressions: %v", regs)
	}
}

// TestCompareStressThroughputRegression fires when a lock's ops/sec
// halves past the tolerance.
func TestCompareStressThroughputRegression(t *testing.T) {
	base, cur := stressFixture(), stressFixture()
	cur.Locks[0].OpsPerSec = base.Locks[0].OpsPerSec * 0.3
	regs := CompareStress(base, cur, 0.5)
	if len(regs) != 1 || !strings.Contains(regs[0], "throughput regression") {
		t.Fatalf("regs = %v, want one throughput regression", regs)
	}
	// Inside tolerance: no fire.
	cur.Locks[0].OpsPerSec = base.Locks[0].OpsPerSec * 0.6
	if regs := CompareStress(base, cur, 0.5); len(regs) != 0 {
		t.Fatalf("regs = %v, want none at 0.6×", regs)
	}
}

// TestCompareStressP99Regression fires when the acquire p99 grows past
// ratio + slack, and stays quiet inside the slack.
func TestCompareStressP99Regression(t *testing.T) {
	base, cur := stressFixture(), stressFixture()
	cur.Locks[1].AcquireP99NS = base.Locks[1].AcquireP99NS*2 + StressP99SlackNS
	regs := CompareStress(base, cur, 0.5)
	if len(regs) != 1 || !strings.Contains(regs[0], "p99 latency regression") {
		t.Fatalf("regs = %v, want one p99 regression", regs)
	}
	// A sub-slack tail on a tiny baseline never fires.
	base.Locks[1].AcquireP99NS = 100
	cur.Locks[1].AcquireP99NS = 100 + StressP99SlackNS
	if regs := CompareStress(base, cur, 0.5); len(regs) != 0 {
		t.Fatalf("regs = %v, want none inside slack", regs)
	}
}

// TestCompareStressMissingRow: a (lock, workers) row vanishing is a
// regression; new rows are not.
func TestCompareStressMissingRow(t *testing.T) {
	base, cur := stressFixture(), stressFixture()
	cur.Locks = cur.Locks[:1]
	regs := CompareStress(base, cur, 0.5)
	if len(regs) != 1 || !strings.Contains(regs[0], "missing lock") {
		t.Fatalf("regs = %v, want one missing-lock regression", regs)
	}
	// Extra coverage in current passes.
	cur = stressFixture()
	cur.Locks = append(cur.Locks, StressLock{Lock: "tas", Workers: 4, OpsPerSec: 1})
	if regs := CompareStress(base, cur, 0.5); len(regs) != 0 {
		t.Fatalf("regs = %v, want none for new coverage", regs)
	}
}
