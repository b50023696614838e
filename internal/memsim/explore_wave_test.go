package memsim

import (
	"reflect"
	"testing"
)

// waveBuild is a small always-passing two-process workload with real
// contention (both processes CAS-loop on one variable), so the
// explorer generates non-trivial waves.
func waveBuild() *Machine {
	m := NewMachine(CC, 2)
	v := m.NewVar("v", HomeGlobal, 0)
	for p := 0; p < 2; p++ {
		m.AddProc("p", func(pr *Proc) {
			for i := 0; i < 2; i++ {
				pr.Read(v)
				pr.Write(v, Word(i))
			}
		})
	}
	return m
}

// TestWaveSteppingMatchesRun drives the explorer one wave at a time,
// the way a checkpointing caller does, and checks that every step
// advances the state by exactly one wave and that the final state
// carries Run's result bit for bit — for an exhausted space and for a
// space capped inside a wave.
func TestWaveSteppingMatchesRun(t *testing.T) {
	for _, maxRuns := range []int{0, 10} {
		ref := (&Explorer{Build: waveBuild, MaxPreemptions: 2, MaxSteps: 5000, MaxRuns: maxRuns}).Run()
		if ref.Err != nil {
			t.Fatalf("reference run: %+v", ref)
		}

		e := &Explorer{Build: waveBuild, MaxPreemptions: 2, MaxSteps: 5000, MaxRuns: maxRuns, Workers: 2}
		st := NewExploreState()
		for waves := 0; ; waves++ {
			if st.Depth != waves || len(st.Result.DepthRuns) != waves {
				t.Fatalf("maxruns=%d: after %d waves the state is at depth %d with depth runs %v", maxRuns, waves, st.Depth, st.Result.DepthRuns)
			}
			if e.Wave(st) {
				break
			}
		}
		if !st.Done || st.Frontier != nil {
			t.Fatalf("maxruns=%d: finished state %+v", maxRuns, st)
		}
		if !reflect.DeepEqual(st.Result, ref) {
			t.Fatalf("maxruns=%d: stepped result %+v, want %+v", maxRuns, st.Result, ref)
		}
		if maxRuns > 0 && ref.Exhausted {
			t.Fatalf("maxruns=%d did not cap the exploration: %+v", maxRuns, ref)
		}

		// A done state stays as it is.
		before := *st
		if !e.Wave(st) || !reflect.DeepEqual(*st, before) {
			t.Fatalf("maxruns=%d: Wave changed a done state: %+v", maxRuns, st)
		}
	}
}

// TestResolvedPreemptions pins the MaxPreemptions encoding.
func TestResolvedPreemptions(t *testing.T) {
	for _, tc := range []struct{ enc, want int }{
		{ZeroPreemptions, 0},
		{0, DefaultPreemptions},
		{3, 3},
	} {
		e := &Explorer{MaxPreemptions: tc.enc}
		if got := e.ResolvedPreemptions(); got != tc.want {
			t.Errorf("ResolvedPreemptions(%d) = %d, want %d", tc.enc, got, tc.want)
		}
	}
}
