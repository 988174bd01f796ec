// Package prog provides the workload suite of the reproduction: the ten
// MiBench-style embedded kernels the paper evaluates (bitcount, CRC32,
// dijkstra, qsort, rijndael-e, sha, stringsearch and the three susan
// variants), hand-written for the RV32IM subset and paired with pure-Go
// reference implementations that validate the emulated results.
//
// Every benchmark follows the same contract: the assembly entry point is
// _start, inputs live at fixed data symbols written by Setup, and the kernel
// leaves a 32-bit checksum in a0 before executing ecall. Check recomputes
// the checksum with an independent Go implementation (or the standard
// library, where one exists) and may additionally inspect memory.
package prog

import (
	"fmt"
	"sort"
	"sync"

	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
)

// Size selects the input scale of a benchmark.
type Size int

const (
	// Tiny keeps dynamic instruction counts in the tens of thousands; used
	// by unit tests.
	Tiny Size = iota
	// Small mirrors MiBench's "small input set" and is the scale every
	// experiment in the paper reproduction runs at.
	Small
	// Large is several times Small, for stress runs.
	Large
)

func (s Size) String() string {
	switch s {
	case Tiny:
		return "tiny"
	case Small:
		return "small"
	case Large:
		return "large"
	}
	return fmt.Sprintf("size(%d)", int(s))
}

// MarshalText encodes the size by its name, so JSON and flag.TextVar carry
// "tiny", "small" or "large". It never fails.
func (s Size) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText is the one parser of size names: "" and "tiny" read as
// Tiny, "small" and "large" as themselves; any other name is an error.
func (s *Size) UnmarshalText(text []byte) error {
	switch string(text) {
	case "", "tiny":
		*s = Tiny
	case "small":
		*s = Small
	case "large":
		*s = Large
	default:
		return fmt.Errorf(`unknown size %q (want "tiny", "small" or "large")`, text)
	}
	return nil
}

// Benchmark bundles one workload: assembly source, data layout, input
// setup and result validation.
type Benchmark struct {
	// Name is the MiBench-style identifier, e.g. "crc32".
	Name string
	// Description says what the kernel computes.
	Description string
	// Source is the RV32IM assembly, entry at _start, checksum in a0.
	Source string
	// Symbols maps the data symbols referenced by Source to addresses.
	Symbols map[string]uint32
	// Setup writes the input data (and any tables) into memory.
	Setup func(m *gpp.Memory, sz Size) error
	// Check validates the checksum the kernel left in a0, and optionally
	// memory contents, against an independent Go implementation.
	Check func(m *gpp.Memory, result uint32, sz Size) error
	// MaxInstructions bounds the run; exceeded means a kernel bug.
	MaxInstructions uint64

	asmOnce sync.Once
	prog    *isa.Program // cached assembly result
	asmErr  error
}

// Assemble returns the assembled program, caching the result. It is safe
// for concurrent use: parallel design-space sweeps assemble each benchmark
// exactly once.
func (b *Benchmark) Assemble() (*isa.Program, error) {
	b.asmOnce.Do(func() {
		p, err := isa.Assemble(b.Source, isa.AsmOptions{
			TextBase: gpp.TextBase,
			Symbols:  b.Symbols,
		})
		if err != nil {
			b.asmErr = fmt.Errorf("prog: assembling %s: %w", b.Name, err)
			return
		}
		b.prog = p
	})
	return b.prog, b.asmErr
}

// NewCore assembles the benchmark, builds a core and runs Setup for the
// given input size.
func (b *Benchmark) NewCore(sz Size) (*gpp.Core, error) {
	p, err := b.Assemble()
	if err != nil {
		return nil, err
	}
	c := gpp.New(p)
	if err := b.Setup(c.Mem, sz); err != nil {
		return nil, fmt.Errorf("prog: setup %s: %w", b.Name, err)
	}
	return c, nil
}

// RunReference executes the benchmark functionally on a plain core and
// validates the result. It returns the checksum and the dynamic instruction
// count.
func (b *Benchmark) RunReference(sz Size) (checksum uint32, dynamic uint64, err error) {
	c, err := b.NewCore(sz)
	if err != nil {
		return 0, 0, err
	}
	n, err := c.Run(b.MaxInstructions, nil)
	if err != nil {
		return 0, n, fmt.Errorf("prog: running %s: %w", b.Name, err)
	}
	result := c.Regs[isa.A0]
	if err := b.Check(c.Mem, result, sz); err != nil {
		return result, n, fmt.Errorf("prog: checking %s: %w", b.Name, err)
	}
	return result, n, nil
}

// registry holds all benchmarks in paper order.
var registry []*Benchmark

func register(b *Benchmark) *Benchmark {
	registry = append(registry, b)
	sort.SliceStable(registry, func(i, j int) bool {
		return suiteOrder(registry[i].Name) < suiteOrder(registry[j].Name)
	})
	return b
}

// suiteOrder fixes the paper's listing order (footnote 1).
func suiteOrder(name string) int {
	order := []string{
		"bitcount", "crc32", "dijkstra", "qsort", "rijndael",
		"sha", "stringsearch", "susan_corners", "susan_edges",
		"susan_smoothing",
	}
	for i, n := range order {
		if n == name {
			return i
		}
	}
	return len(order)
}

// All returns the full suite in paper order. The returned slice is fresh;
// the Benchmark pointers are shared.
func All() []*Benchmark {
	out := make([]*Benchmark, len(registry))
	copy(out, registry)
	return out
}

// ByName finds a benchmark by name.
func ByName(name string) (*Benchmark, bool) {
	for _, b := range registry {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

// Names returns the suite's benchmark names in paper order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Name
	}
	return out
}

// layout is a bump allocator for a benchmark's data segment.
type layout struct {
	next    uint32
	symbols map[string]uint32
}

func newLayout() *layout {
	return &layout{next: gpp.DataBase, symbols: make(map[string]uint32)}
}

// alloc reserves size bytes for name, 8-byte aligned.
func (l *layout) alloc(name string, size uint32) uint32 {
	addr := l.next
	l.symbols[name] = addr
	l.next += (size + 7) &^ 7
	return addr
}
