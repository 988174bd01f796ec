// Package lint is the project's invariants-as-lint layer: a small
// analysis framework (in the spirit of golang.org/x/tools/go/analysis,
// reimplemented on the standard library because this tree builds with
// no external module dependencies) plus the cgra-vet analyzer suite
// that enforces the determinism and memo-key contracts documented in
// ROADMAP.md at `go vet` time, before any simulation runs.
//
// The project-specific analyzers are:
//
//   - wallclock:  no time.Now/time.Since (or any wall-clock read) in
//     simulation packages — wall time may only enter via cmd/ or
//     service request plumbing.
//   - globalrand: no draws from math/rand's shared global state in
//     simulation packages — PRNG state must be an explicitly seeded
//     local source (splitmix64-style keyed hashing per PR 6, or
//     rand.New(rand.NewSource(seed))).
//   - maporder:   a `range` over a map whose body appends to a slice
//     that is never sorted afterwards, or feeds a writer/encoder/trace
//     sink, leaks Go's randomized map order into "byte-identical"
//     outputs.
//   - traceemit:  trace emission in internal/lifetime is only legal
//     from Run's epoch loop (or its emit* helpers) — never from
//     runEpoch — so memo-replayed epochs re-emit their recorded
//     events (the PR 9 invariant).
//
// plus a stdlib reimplementation of the core pattern of the stock
// x/tools nilness check (see its file for the precise subset), and a
// validator for //cgravet:ignore directives. Dead stores to locals are
// left to staticcheck's SA4006, which CI already runs.
//
// A finding is suppressed by an audit-friendly directive on the same
// line (or the line above, or the doc comment of the enclosing
// top-level declaration):
//
//	//cgravet:ignore <analyzer> <reason>
//
// The reason is mandatory: an ignore without one is itself a finding,
// so every exception in the tree is visible and auditable.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects the package held by the
// Pass and reports findings through pass.Report/Reportf.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, enable/disable
	// flags, and //cgravet:ignore directives. Lower-case, no spaces.
	Name string
	// Doc is a one-line description (shown by -flags and in usage).
	Doc string
	// Run performs the analysis. Diagnostics go through pass.Report.
	Run func(pass *Pass) error
}

// Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Pass carries one analyzer's view of one type-checked package unit.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// report receives every diagnostic; the driver applies
	// //cgravet:ignore suppression afterwards.
	report func(Diagnostic)
}

// Report emits a diagnostic.
func (p *Pass) Report(d Diagnostic) { p.report(d) }

// Reportf emits a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// InModule reports whether the package under analysis belongs to this
// module (the agingcgra tree), as opposed to a dependency unit go vet
// hands the tool for export data only.
func (p *Pass) InModule() bool {
	path := p.Pkg.Path()
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

// InSimulationScope reports whether the package is one the determinism
// contract binds: the module root and everything under internal/.
// cmd/ and examples/ are process entry points where wall time and
// one-shot randomness are legitimate.
func (p *Pass) InSimulationScope() bool {
	path := p.Pkg.Path()
	return path == modulePath || strings.HasPrefix(path, modulePath+"/internal/")
}

const modulePath = "agingcgra"

// IsTestFile reports whether the file at pos is a _test.go file.
// Test code times out, polls deadlines, and builds throwaway maps;
// the simulation-determinism analyzers skip it.
func (p *Pass) IsTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// NonTestFiles yields the unit's non-test files.
func (p *Pass) NonTestFiles() []*ast.File {
	var out []*ast.File
	for _, f := range p.Files {
		if !p.IsTestFile(f.Pos()) {
			out = append(out, f)
		}
	}
	return out
}

// Suite returns the full cgra-vet analyzer set in reporting order.
// Directive validation runs first so a malformed ignore is reported
// even when the analyzer it names is disabled.
func Suite() []*Analyzer {
	return []*Analyzer{
		DirectiveAnalyzer,
		Wallclock,
		Globalrand,
		Maporder,
		Traceemit,
		Nilness,
	}
}

// Finding is one unsuppressed diagnostic of a named analyzer, as
// returned by Analyze.
type Finding struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Analyze runs the analyzers over one parsed, type-checked package:
// it parses the files' //cgravet:ignore directives, executes every
// analyzer, filters suppressed findings, and returns the rest in
// file/position order. Both the vet-tool driver and the linttest
// harness go through here, so fixtures exercise the exact production
// suppression semantics.
func Analyze(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, analyzers []*Analyzer) ([]Finding, error) {
	u := &unit{fset: fset, files: files, pkg: pkg, info: info}
	for _, f := range files {
		u.dirs = append(u.dirs, parseDirectives(fset, f)...)
	}
	fs, err := u.runAnalyzers(analyzers)
	if err != nil {
		return nil, err
	}
	out := make([]Finding, 0, len(fs))
	for _, f := range fs {
		out = append(out, Finding{Analyzer: f.analyzer, Pos: f.diag.Pos, Message: f.diag.Message})
	}
	return out, nil
}

// unit is one loaded, type-checked package plus its parsed
// //cgravet:ignore directives; the driver runs every enabled analyzer
// over it and filters the combined findings through the directives.
type unit struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	dirs  []directive
}

// finding pairs a diagnostic with the analyzer that produced it.
type finding struct {
	analyzer string
	diag     Diagnostic
}

// runAnalyzers executes the analyzers over the unit and returns the
// unsuppressed findings in file/position order.
func (u *unit) runAnalyzers(analyzers []*Analyzer) ([]finding, error) {
	known := make(map[string]bool)
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var out []finding
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      u.fset,
			Files:     u.files,
			Pkg:       u.pkg,
			TypesInfo: u.info,
		}
		pass.report = func(d Diagnostic) {
			if u.suppressed(a.Name, d.Pos) {
				return
			}
			out = append(out, finding{analyzer: a.Name, diag: d})
		}
		if a.Name == directiveName {
			// The directive validator needs the known-analyzer set and
			// the parsed directives; smuggle them via the unit.
			if err := runDirectiveCheck(pass, u.dirs, known); err != nil {
				return nil, err
			}
			continue
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := u.fset.Position(out[i].diag.Pos), u.fset.Position(out[j].diag.Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return out, nil
}

// suppressed reports whether a valid //cgravet:ignore directive covers
// the analyzer at the diagnostic's line. Invalid directives (missing
// reason, unknown analyzer) never suppress: they surface as findings
// of the directive analyzer instead.
func (u *unit) suppressed(analyzer string, pos token.Pos) bool {
	p := u.fset.Position(pos)
	for _, d := range u.dirs {
		if d.analyzer != analyzer || !d.valid {
			continue
		}
		if d.file == p.Filename && d.startLine <= p.Line && p.Line <= d.endLine {
			return true
		}
	}
	return false
}

// inspectWithStack walks the AST under root, calling fn with each node
// and the stack of its ancestors (outermost first, not including n).
// Returning false prunes the subtree.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			// Pruned subtrees get no post-visit nil, so don't push.
			return false
		}
		stack = append(stack, n)
		return true
	})
}
