package lint_test

import (
	"testing"

	"agingcgra/internal/lint"
	"agingcgra/internal/lint/linttest"
)

// Each analyzer runs against a fixture package seeded with violations
// (and with legal idioms that must stay silent); expectations live in
// the fixtures as `// want "regexp"` comments.

func TestWallclock(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.Wallclock}, "agingcgra/internal/simclock")
}

// TestWallclockCmdScope checks the scope rule: cmd/ binaries may read
// the wall clock, so the fixture has zero want comments and the test
// fails if the analyzer reports anything there.
func TestWallclockCmdScope(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.Wallclock}, "agingcgra/cmd/clockok")
}

func TestGlobalrand(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.Globalrand}, "agingcgra/internal/simrand")
}

func TestMaporder(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.Maporder}, "agingcgra/internal/mapemit")
}

func TestTraceemit(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.Traceemit}, "agingcgra/internal/lifetime")
}

func TestNilness(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.Nilness}, "agingcgra/internal/nilfix")
}

// TestDirectives covers the directive contract: an ignore without a
// reason, a bare ignore, an unknown analyzer, and the spaced near-miss
// are all findings themselves — and none of them suppresses the
// wallclock violation they sit on. Only the well-formed directive in
// ValidSuppression silences its line.
func TestDirectives(t *testing.T) {
	linttest.Run(t, "testdata", []*lint.Analyzer{lint.DirectiveAnalyzer, lint.Wallclock}, "agingcgra/internal/dirfix")
}
