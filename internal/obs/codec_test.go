package obs_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"fetchphi/internal/claims"
	"fetchphi/internal/obs"
)

// schema is one artifact type as the codec tests drive it: its schema
// tag, its public reader and writer, and a populated fixture.
type schema struct {
	name, tag string
	read      func(path string) (any, error)
	write     func(a any, path string) error
	fixture   func() any
}

func schemaOf[T any](name, tag string, read func(string) (*T, error), write func(*T, string) error, fixture func() *T) schema {
	return schema{
		name: name, tag: tag,
		read: func(path string) (any, error) {
			a, err := read(path)
			if err != nil {
				return nil, err
			}
			return a, nil
		},
		write:   func(a any, path string) error { return write(a.(*T), path) },
		fixture: func() any { return fixture() },
	}
}

func sampleClaims() *claims.Artifact {
	return &claims.Artifact{
		CreatedBy: "test", BenchDir: "bench/baseline",
		Claims: []claims.ClaimResult{
			{ID: "theorem-1", Title: "t1", Paper: "p", Experiments: []string{"E3"},
				Verdict: claims.Reproduced, Measured: "flat", Details: []string{"ok"}},
			{ID: "lemma-1", Title: "l1", Paper: "p", Experiments: []string{"E1"},
				Verdict: claims.Inconclusive, Measured: "missing"},
		},
	}
}

// schemas lists every artifact type written through the shared codec.
var schemas = []schema{
	schemaOf("bench", obs.Schema, obs.ReadArtifact, (*obs.Artifact).WriteFile, obs.SampleArtifact),
	schemaOf("trace", obs.TraceSchema, obs.ReadTraceArtifact, (*obs.TraceArtifact).WriteFile, obs.SampleTrace),
	schemaOf("explore", obs.ExploreSchema, obs.ReadExploreArtifact, (*obs.ExploreArtifact).WriteFile, obs.SampleExplore),
	schemaOf("lint", obs.LintSchema, obs.ReadLintArtifact, (*obs.LintArtifact).WriteFile, obs.SampleLint),
	schemaOf("stress", obs.StressSchema, obs.ReadStressArtifact, (*obs.StressArtifact).WriteFile, obs.SampleStress),
	schemaOf("claims", claims.Schema, claims.ReadArtifact, (*claims.Artifact).WriteFile, sampleClaims),
}

// TestCodec pins the shared codec's contract for every schema: the
// write creates parent directories and leaves no temp file, the read
// returns what was written, a rewrite is byte-identical, and the reader
// rejects another schema's artifact, truncated JSON and a missing file.
func TestCodec(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, len(schemas))
	written := make([]any, len(schemas))
	for i, s := range schemas {
		paths[i] = filepath.Join(dir, s.name, "nested", s.name+".json")
		written[i] = s.fixture()
		if err := s.write(written[i], paths[i]); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	for i, s := range schemas {
		t.Run(s.name, func(t *testing.T) {
			if leftover, _ := filepath.Glob(filepath.Join(filepath.Dir(paths[i]), "*.tmp")); len(leftover) != 0 {
				t.Fatalf("temp files left behind: %v", leftover)
			}
			got, err := s.read(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, written[i]) {
				t.Fatalf("round trip diverged:\nwrote %+v\nread  %+v", written[i], got)
			}
			if tag := reflect.ValueOf(got).Elem().FieldByName("Schema").String(); tag != s.tag {
				t.Fatalf("schema tag %q, want %q", tag, s.tag)
			}

			again := filepath.Join(dir, s.name, "again.json")
			if err := s.write(got, again); err != nil {
				t.Fatal(err)
			}
			first, _ := os.ReadFile(paths[i])
			second, _ := os.ReadFile(again)
			if !bytes.Equal(first, second) || !bytes.HasSuffix(first, []byte("}\n")) {
				t.Fatalf("rewrite is not byte-stable:\n%s\n%s", first, second)
			}

			// Every other schema's artifact is foreign here.
			foreign := paths[(i+1)%len(schemas)]
			_, err = s.read(foreign)
			var se *obs.SchemaError
			if !errors.As(err, &se) || !strings.Contains(err.Error(), "schema") {
				t.Fatalf("foreign schema: err = %v, want a *obs.SchemaError", err)
			}

			truncated := filepath.Join(dir, s.name, "truncated.json")
			if err := os.WriteFile(truncated, first[:len(first)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := s.read(truncated); err == nil || errors.As(err, &se) {
				t.Fatalf("truncated JSON: err = %v, want a parse error", err)
			}

			if _, err := s.read(filepath.Join(dir, "absent.json")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
			}
		})
	}
}

// FuzzReadArtifact drives the shared reader with arbitrary bytes under
// every schema. The reader must never panic, and whatever it accepts
// must rewrite and read back to the same canonical bytes. The seed
// corpus is every checked-in baseline plus a written fixture of each
// type and a resumable explore checkpoint; `make fuzz` explores beyond
// it.
func FuzzReadArtifact(f *testing.F) {
	baselines, _ := filepath.Glob(filepath.Join("..", "..", "bench", "baseline", "*.json"))
	if len(baselines) == 0 {
		f.Fatal("no baseline artifacts to seed the corpus")
	}
	for _, path := range baselines {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	dir := f.TempDir()
	fixtures := []schema{schemaOf("checkpoint", obs.ExploreSchema, obs.ReadExploreArtifact, (*obs.ExploreArtifact).WriteFile, obs.SampleCheckpoint)}
	for _, s := range append(fixtures, schemas...) {
		path := filepath.Join(dir, s.name+".json")
		if err := s.write(s.fixture(), path); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"schema": "fetchphi.bench/v1", "cells": 5}`))

	in, out1, out2 := filepath.Join(dir, "in.json"), filepath.Join(dir, "out1.json"), filepath.Join(dir, "out2.json")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, s := range schemas {
			a, err := s.read(in)
			if err != nil {
				continue
			}
			if err := s.write(a, out1); err != nil {
				t.Fatalf("%s: accepted input does not rewrite: %v", s.name, err)
			}
			b, err := s.read(out1)
			if err != nil {
				t.Fatalf("%s: rewritten artifact rejected: %v", s.name, err)
			}
			if err := s.write(b, out2); err != nil {
				t.Fatal(err)
			}
			first, _ := os.ReadFile(out1)
			second, _ := os.ReadFile(out2)
			if !bytes.Equal(first, second) {
				t.Fatalf("%s: read-back differs from the rewrite:\n%s\n%s", s.name, first, second)
			}
		}
	})
}
