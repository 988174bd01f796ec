package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden CLI outputs")

// matchGolden compares got byte for byte against testdata/name, or rewrites
// the golden when the test runs with -update.
func matchGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
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

// TestRunTraceGolden runs a tiny deterministic scenario with -trace and
// compares every artifact byte for byte against the committed goldens:
// the CSV/HTML renderers and the event stream behind them are pure
// functions of the scenario, so any drift here is a real contract change
// (regenerate deliberately with `go test -run TraceGolden -update`).
func TestRunTraceGolden(t *testing.T) {
	dir := t.TempDir()
	prefix := filepath.Join(dir, "trace")
	var stdout, stderr bytes.Buffer
	err := run([]string{
		"-rows", "2", "-cols", "8",
		"-allocators", "baseline",
		"-bench", "crc32",
		"-years", "2",
		"-workers", "1",
		"-trace", prefix,
		"-o", filepath.Join(dir, "out.json"),
	}, &stdout, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".events.csv", ".snapshots.csv", ".html"} {
		got, err := os.ReadFile(prefix + suffix)
		if err != nil {
			t.Fatalf("missing artifact: %v", err)
		}
		matchGolden(t, "trace"+suffix+".golden", got)
		if !strings.Contains(stderr.String(), "wrote "+prefix+suffix) {
			t.Errorf("stderr does not mention %s", prefix+suffix)
		}
	}
}

// TestRunTraceAtAnyWorkerCount pins the CLI half of the determinism
// contract: -trace artifacts are byte-identical at -workers 1 and 4,
// because each scenario records into its own recorder and the combined
// stream is concatenated in scenario order.
func TestRunTraceAtAnyWorkerCount(t *testing.T) {
	render := func(workers string) map[string][]byte {
		t.Helper()
		dir := t.TempDir()
		prefix := filepath.Join(dir, "trace")
		var stdout, stderr bytes.Buffer
		err := run([]string{
			"-rows", "2", "-cols", "8",
			"-allocators", "baseline,utilization-aware,remap",
			"-bench", "crc32",
			"-years", "3",
			"-workers", workers,
			"-trace", prefix,
			"-o", filepath.Join(dir, "out.json"),
		}, &stdout, &stderr)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte)
		for _, suffix := range []string{".events.csv", ".snapshots.csv", ".html"} {
			b, err := os.ReadFile(prefix + suffix)
			if err != nil {
				t.Fatal(err)
			}
			out[suffix] = b
		}
		return out
	}
	serial := render("1")
	parallel := render("4")
	for suffix, want := range serial {
		if !bytes.Equal(parallel[suffix], want) {
			t.Errorf("%s differs between -workers 1 and 4", suffix)
		}
	}
}

// TestRunExploreShapeFaultsGolden pins the JSON of the lifetime runs whose
// outputs a refactor of the placement, mapping or memo layers must leave
// byte-identical. Each case runs at -workers 1 and at the default against
// one golden, so the serial==parallel contract is checked on the same
// bytes. The Go version line is blanked so the goldens do not depend on
// the toolchain.
//
// The explore case runs the explorer under translation-time shape search
// with intermittent faults and recovery. Quarantine and probation move the
// observed health under the DBT's translations there, so this run is the
// one that shows whether observe's "next PC is already translated"
// terminator is implied by the loop's next cache hit: no dbt test does.
// The other cases run crc32 under the default four allocators: shape
// search, the fine-ladder remap rescue and stale translations around dead
// columns, a dead quadrant, and faults with recovery. The two mix cases
// run several benchmarks, one name repeated, on one fabric per epoch: they
// pin how the programs of a mix share the controller's wear, health and
// allocator state. A case's own -bench overrides the crc32 default.
func TestRunExploreShapeFaultsGolden(t *testing.T) {
	cases := []struct {
		golden string
		args   []string
	}{
		{"explore-shape-faults.json.golden",
			[]string{"-allocators", "explore", "-shape-translations", "-faults", "-recovery"}},
		{"shape-dead-columns-0-8.json.golden",
			[]string{"-shape-translations", "-dead", "columns:0+8"}},
		{"remap-fine-dead-columns-3-11.json.golden",
			[]string{"-allocators", "remap", "-ladder", "fine", "-dead", "columns:3+11"}},
		{"stale-dead-columns-0-8.json.golden",
			[]string{"-stale-translations", "-dead", "columns:0+8"}},
		{"dead-quadrant.json.golden",
			[]string{"-dead", "quadrant"}},
		{"faults-recovery.json.golden",
			[]string{"-faults", "-recovery"}},
		{"mix-explore-shape-faults.json.golden",
			[]string{"-bench", "crc32,sha,crc32", "-allocators", "explore", "-shape-translations", "-faults", "-recovery"}},
		{"mix-stale-dead-columns-0-8.json.golden",
			[]string{"-bench", "sha,crc32,sha", "-stale-translations", "-dead", "columns:0+8"}},
	}
	for _, tc := range cases {
		t.Run(strings.TrimSuffix(tc.golden, ".json.golden"), func(t *testing.T) {
			for _, workers := range [][]string{{"-workers", "1"}, nil} {
				var stdout, stderr bytes.Buffer
				args := append([]string{"-bench", "crc32"}, tc.args...)
				if err := run(append(args, workers...), &stdout, &stderr); err != nil {
					t.Fatal(err)
				}
				got := bytes.Replace(stdout.Bytes(),
					[]byte(`"go_version": "`+runtime.Version()+`"`), []byte(`"go_version": ""`), 1)
				matchGolden(t, tc.golden, got)
			}
		})
	}
}
