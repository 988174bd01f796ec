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

// TestRunSweepGolden pins the rendered report of three tiny sweeps: Fig. 6
// under the snake allocator (its pivot walk over twelve geometries), the
// explorer's (horizon x period) sweep and the shape-ladder sweep. Each runs
// at -workers 1 and at the default against one golden, so the
// serial==parallel contract is checked on the same bytes.
func TestRunSweepGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"fig6-utilization-aware.golden", []string{"-allocator", "utilization-aware"}},
		{"explorer-sweep.golden", []string{"-explorer-sweep"}},
		{"shape-sweep.golden", []string{"-shape-sweep"}},
	}
	for _, tc := range cases {
		t.Run(tc.golden, func(t *testing.T) {
			for _, workers := range [][]string{{"-workers", "1"}, nil} {
				var stdout, stderr bytes.Buffer
				args := append([]string{"-size", "tiny", "-years", "2"}, tc.args...)
				if err := run(append(args, workers...), &stdout, &stderr); err != nil {
					t.Fatal(err)
				}
				matchGolden(t, tc.golden, stdout.Bytes())
			}
		})
	}
}
