package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunRejectsUnknownNames pins the CLI's error path: unknown allocator,
// size, ladder and failure-pattern names, a sweep axis value given twice,
// and a flag of a mode the run does not select, must fail with a
// descriptive error (the process exits non-zero), not panic mid-sweep or
// be silently ignored.
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
		{"repeated failure", []string{"-explorer-sweep", "-failures", "quadrant,column,quadrant",
			"-horizons", "0.25,4", "-periods", "4,64", "-years", "2", "-size", "tiny"}, `failure pattern "quadrant" is repeated`},
		{"repeated failure in shape sweep", []string{"-shape-sweep", "-failures", "column,column", "-years", "2", "-size", "tiny"},
			`failure pattern "column" is repeated`},
		{"repeated horizon", []string{"-explorer-sweep", "-horizons", "1,1", "-size", "tiny"}, "horizon 1 is repeated"},
		{"repeated parsed horizon", []string{"-explorer-sweep", "-horizons", "0.5,4,0.50", "-size", "tiny"},
			"horizon 0.5 is repeated"},
		{"repeated period", []string{"-explorer-sweep", "-periods", "4,16,4", "-size", "tiny"}, "period 4 is repeated"},
		{"repeated ladder", []string{"-shape-sweep", "-ladders", "fine,halving,fine", "-size", "tiny"},
			`ladder "fine" is repeated`},
		{"bad period before repeated horizon", []string{"-explorer-sweep", "-horizons", "1,1", "-periods", "0", "-size", "tiny"},
			"must be >= 1"},
		{"bad failure before repeated ladder", []string{"-shape-sweep", "-failures", "mystery", "-ladders", "fine,fine"},
			"unknown failure pattern"},
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
		{"years in Fig. 6", []string{"-allocator", "utilization-aware", "-years", "50"},
			"-years applies only to -explorer-sweep and -shape-sweep"},
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
