package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// buildVet compiles the cgra-vet binary once into a test temp dir.
func buildVet(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cgra-vet")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("building cgra-vet: %v\n%s", err, out)
	}
	return bin
}

// writeModule lays out a throwaway module named agingcgra (the
// analyzers scope to the project module path) containing one
// simulation package.
func writeModule(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod":              "module agingcgra\n\ngo 1.24\n",
		"internal/sim/sim.go": src,
	}
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runVet invokes `go vet -vettool=bin ./...` in dir.
func runVet(t *testing.T, bin, dir string) (string, error) {
	t.Helper()
	cmd := exec.Command("go", "vet", "-vettool="+bin, "./...")
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	err := cmd.Run()
	return out.String(), err
}

// TestSeededViolationFailsVet is the CI-gate demonstration: a module
// with a wallclock violation in a simulation package must make
// `go vet -vettool=cgra-vet` exit non-zero and name the finding.
func TestSeededViolationFailsVet(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, `package sim

import "time"

// Stamp breaks the determinism contract on purpose.
func Stamp() time.Time { return time.Now() }
`)
	out, err := runVet(t, bin, dir)
	if err == nil {
		t.Fatalf("go vet succeeded on a module with a seeded wallclock violation; output:\n%s", out)
	}
	if !strings.Contains(out, "time.Now reads the wall clock") {
		t.Fatalf("go vet failed but not with the wallclock finding; output:\n%s", out)
	}
}

// TestCleanModulePassesVet checks the inverse: deterministic code and
// a properly annotated exception produce exit status 0.
func TestCleanModulePassesVet(t *testing.T) {
	bin := buildVet(t)
	dir := writeModule(t, `package sim

import "time"

// Span is pure duration arithmetic: no wall-clock read.
func Span(d time.Duration) time.Duration { return 2 * d }

// Deadline is an audited exception.
func Deadline() time.Time {
	return time.Now() //cgravet:ignore wallclock request deadline plumbing is caller-visible wall time
}
`)
	out, err := runVet(t, bin, dir)
	if err != nil {
		t.Fatalf("go vet failed on a clean module: %v\noutput:\n%s", err, out)
	}
}

// TestVersionHandshake checks the -V=full output cmd/go parses to
// derive the tool's build ID: "<name> version <words> buildID=<hex>".
func TestVersionHandshake(t *testing.T) {
	bin := buildVet(t)
	out, err := exec.Command(bin, "-V=full").Output()
	if err != nil {
		t.Fatalf("cgra-vet -V=full: %v", err)
	}
	re := regexp.MustCompile(`^cgra-vet version [^\n]* buildID=[0-9a-f]+\n$`)
	if !re.Match(out) {
		t.Fatalf("-V=full output %q does not match %v", out, re)
	}
}

// TestFlagsHandshake checks the -flags output is the JSON flag list
// cmd/go expects.
func TestFlagsHandshake(t *testing.T) {
	bin := buildVet(t)
	out, err := exec.Command(bin, "-flags").Output()
	if err != nil {
		t.Fatalf("cgra-vet -flags: %v", err)
	}
	var flags []struct {
		Name  string
		Bool  bool
		Usage string
	}
	if err := json.Unmarshal(out, &flags); err != nil {
		t.Fatalf("-flags output is not the expected JSON: %v\n%s", err, out)
	}
	names := map[string]bool{}
	for _, f := range flags {
		names[f.Name] = true
	}
	for _, want := range []string{"wallclock", "globalrand", "maporder", "traceemit", "nilness"} {
		if !names[want] {
			t.Errorf("-flags output lacks the %s toggle; got %s", want, out)
		}
	}
}
