package obs

// The artifact codec: one writer and one reader for every schema the
// repository records (fetchphi.bench, trace, explore, lint, stress and
// claims). Each artifact type supplies only what differs
// between types — its schema tag, its canonical order and, where it
// has one, its validator — as a Codec value. The bytes on disk are
// each type's own indented JSON document; the codec adds no envelope.

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Codec describes one artifact schema to the shared writer and reader.
type Codec[T any] struct {
	// Schema is the tag every artifact of the type carries.
	Schema string
	// Tag returns the artifact's schema field.
	Tag func(*T) *string
	// Normalize puts the artifact in canonical order before it is
	// written, so equal artifacts write equal bytes (nil: no order).
	Normalize func(*T)
	// Validate checks invariants beyond the schema tag, on write and
	// on read (nil: the tag is the only check).
	Validate func(*T) error
}

// SchemaError reports a well-formed JSON document whose schema tag is
// not the one the reader asked for. Directory readers skip such files;
// single-file readers fail with it.
type SchemaError struct{ Path, Got, Want string }

func (e *SchemaError) Error() string {
	return fmt.Sprintf("obs: %s has schema %q, want %q", e.Path, e.Got, e.Want)
}

// WriteFile stamps the schema tag when it is empty, normalizes and
// validates a, and writes it to path as indented JSON with a trailing
// newline through WriteFileAtomic.
func (c Codec[T]) WriteFile(path string, a *T) error {
	if tag := c.Tag(a); *tag == "" {
		*tag = c.Schema
	}
	if c.Normalize != nil {
		c.Normalize(a)
	}
	if c.Validate != nil {
		if err := c.Validate(a); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal %s: %w", path, err)
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// ReadFile loads the artifact at path and checks it: the schema tag
// must equal c.Schema — a *SchemaError otherwise, even when the foreign
// document's fields do not fit T — and Validate, when set, must pass.
// Input that is not JSON is a parse error, never a SchemaError, so a
// truncated artifact is never mistaken for a foreign one.
func (c Codec[T]) ReadFile(path string) (*T, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("obs: %w", err)
	}
	a := new(T)
	if err := json.Unmarshal(data, a); err != nil {
		var probe struct {
			Schema string `json:"schema"`
		}
		if json.Unmarshal(data, &probe) != nil || probe.Schema == c.Schema {
			return nil, fmt.Errorf("obs: parse %s: %w", path, err)
		}
		return nil, &SchemaError{Path: path, Got: probe.Schema, Want: c.Schema}
	}
	if got := *c.Tag(a); got != c.Schema {
		return nil, &SchemaError{Path: path, Got: got, Want: c.Schema}
	}
	if c.Validate != nil {
		if err := c.Validate(a); err != nil {
			return nil, fmt.Errorf("obs: %s: %w", path, err)
		}
	}
	return a, nil
}

// WriteFileAtomic writes data to path through a temp file and a rename,
// creating parent directories as needed, so a crashed run never leaves
// a truncated file behind. Every artifact, the claims HTML report and
// the SARIF log are written through it.
func WriteFileAtomic(path string, data []byte) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("obs: %w", err)
		}
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("obs: %w", err)
	}
	return nil
}

// GitCommit returns the short commit hash of the working directory's
// HEAD for artifact Commit fields, or "" outside a git checkout.
func GitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
