package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsUnknownNames pins the CLI's error path: unknown allocator,
// size, ladder and failure-pattern names, and a flag of a mode the run
// does not select, must fail with a descriptive error (the process exits
// non-zero), not panic mid-sweep or be silently ignored.
func TestRunRejectsUnknownNames(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"allocator", []string{"-allocator", "nonsense"}, "unknown allocator"},
		{"size", []string{"-size", "jumbo"}, "unknown size"},
		{"ladder", []string{"-shape-sweep", "-ladders", "bogus", "-years", "1"}, "unknown shape ladder"},
		{"failure", []string{"-explorer-sweep", "-failures", "mystery", "-years", "1"}, "unknown failure pattern"},
		{"bad horizon", []string{"-explorer-sweep", "-horizons", "abc"}, "bad float"},
		{"infinite horizon", []string{"-explorer-sweep", "-horizons", "inf", "-periods", "16", "-size", "tiny"},
			"finite and positive"},
		{"NaN horizon", []string{"-explorer-sweep", "-horizons", "nan", "-periods", "16", "-size", "tiny"},
			"finite and positive"},
		{"zero horizon", []string{"-explorer-sweep", "-horizons", "1,0", "-periods", "16", "-size", "tiny"},
			"finite and positive"},
		{"bad period", []string{"-explorer-sweep", "-periods", "x"}, "bad integer"},
		{"both sweeps", []string{"-explorer-sweep", "-shape-sweep"}, "mutually exclusive"},
		{"allocator in shape sweep", []string{"-shape-sweep", "-allocator", "explore"},
			"-allocator applies only to the Fig. 6 sweep"},
		{"allocator in explorer sweep", []string{"-explorer-sweep", "-allocator", "baseline"},
			"-allocator applies only to the Fig. 6 sweep"},
		{"horizons in Fig. 6", []string{"-horizons", "1"}, "-horizons applies only to -explorer-sweep"},
		{"periods in shape sweep", []string{"-shape-sweep", "-periods", "4"},
			"-periods applies only to -explorer-sweep"},
		{"ladders in Fig. 6", []string{"-ladders", "fine"}, "-ladders applies only to -shape-sweep"},
		{"ladders in explorer sweep", []string{"-explorer-sweep", "-ladders", "fine"},
			"-ladders applies only to -shape-sweep"},
		{"failures in Fig. 6", []string{"-failures", "column"},
			"-failures applies only to -explorer-sweep and -shape-sweep"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("args %v: expected an error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("args %v: error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}
