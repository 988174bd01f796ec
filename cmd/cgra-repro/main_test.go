package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden CLI outputs")

// matchGolden compares got byte for byte against testdata/name, or rewrites
// the golden when the test runs with -update.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output drifted from golden %s (regenerate deliberately with -update)", golden)
	}
}

// TestRunTinyGolden pins the whole tiny-scale reproduction report — every
// figure's cycles, speedups, utilizations and lifetimes — serially and at
// the default worker count, against one golden.
func TestRunTinyGolden(t *testing.T) {
	for _, workers := range [][]string{{"-workers", "1"}, nil} {
		var stdout bytes.Buffer
		if err := run(append([]string{"-size", "tiny"}, workers...), &stdout); err != nil {
			t.Fatal(err)
		}
		matchGolden(t, "tiny.golden", stdout.Bytes())
	}
}
