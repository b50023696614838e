package obs

import (
	"path/filepath"
	"strings"
	"testing"
)

func sampleTrace() *TraceArtifact {
	return &TraceArtifact{
		Schema:    TraceSchema,
		Kind:      "recording",
		Algorithm: "g-dsm",
		Model:     "DSM",
		N:         2,
		Steps:     40,
		CreatedBy: "test",
		Spans: []TraceSpan{
			{Proc: 1, Kind: "entry", Start: 5, End: 12, RMRs: 3, Vars: []string{"Queue", "Signal[1]"}},
			{Proc: 1, Kind: "spin", Start: 7, End: 11, RMRs: 0, Vars: []string{"Signal[1]"}},
			{Proc: 0, Kind: "entry", Start: 1, End: 4, RMRs: 2, Vars: []string{"Queue"}},
			{Proc: 0, Kind: "cs", Start: 4, End: 6, RMRs: 1, Vars: []string{"cs-scratch"}},
			{Proc: 0, Kind: "exit", Start: 6, End: 8, RMRs: 1, Vars: []string{"Signal[1]"}},
		},
	}
}

// TestTraceArtifactRoundTrip: spans come back in canonical order.
func TestTraceArtifactRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "TRACE_test.json")
	if err := sampleTrace().WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	// Sort must have ordered by start, with the parent entry span
	// before its nested spin span.
	for i := 1; i < len(got.Spans); i++ {
		if got.Spans[i].Start < got.Spans[i-1].Start {
			t.Fatalf("spans not sorted by start: %+v", got.Spans)
		}
	}
}

// TestTraceValidateRejects: schema, kind, span-kind, proc-range and
// interval violations are all caught.
func TestTraceValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*TraceArtifact)
		want   string
	}{
		{"schema", func(a *TraceArtifact) { a.Schema = "fetchphi.bench/v1" }, "schema"},
		{"kind", func(a *TraceArtifact) { a.Kind = "dump" }, "kind"},
		{"span kind", func(a *TraceArtifact) { a.Spans[0].Kind = "ncs" }, "entry/cs/exit/spin"},
		{"proc range", func(a *TraceArtifact) { a.Spans[0].Proc = 7 }, "outside"},
		{"empty span", func(a *TraceArtifact) { a.Spans[0].End = a.Spans[0].Start }, "empty or inverted"},
		{"negative rmrs", func(a *TraceArtifact) { a.Spans[0].RMRs = -1 }, "negative"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := sampleTrace()
			tc.mutate(a)
			err := a.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if err := sampleTrace().Validate(); err != nil {
		t.Fatalf("valid artifact rejected: %v", err)
	}
}

// TestTraceArtifactName: cell keys (with '/' and '=') become single
// safe path components, deterministically.
func TestTraceArtifactName(t *testing.T) {
	got := TraceArtifactName("E1/g-cc/CC/N=8/entries=4/seed=1")
	if strings.ContainsAny(got, "/=") {
		t.Fatalf("unsafe characters in %q", got)
	}
	if !strings.HasPrefix(got, "TRACE_") || !strings.HasSuffix(got, ".json") {
		t.Fatalf("unexpected shape %q", got)
	}
	if got != TraceArtifactName("E1/g-cc/CC/N=8/entries=4/seed=1") {
		t.Fatal("name not deterministic")
	}
}
