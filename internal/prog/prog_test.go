package prog

import (
	"testing"

	"agingcgra/internal/gpp"
	"agingcgra/internal/isa"
)

func TestSuiteComplete(t *testing.T) {
	want := []string{
		"bitcount", "crc32", "dijkstra", "qsort", "rijndael",
		"sha", "stringsearch", "susan_corners", "susan_edges",
		"susan_smoothing",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("suite has %d benchmarks (%v), want %d", len(got), got, len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("suite[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestByName(t *testing.T) {
	b, ok := ByName("crc32")
	if !ok || b.Name != "crc32" {
		t.Fatal("ByName(crc32) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("ByName accepted unknown benchmark")
	}
}

func TestAllAssemble(t *testing.T) {
	for _, b := range All() {
		if _, err := b.Assemble(); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

// TestAllTiny functionally validates every kernel against its Go reference
// at the Tiny scale.
func TestAllTiny(t *testing.T) {
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sum, n, err := b.RunReference(Tiny)
			if err != nil {
				t.Fatal(err)
			}
			if n == 0 {
				t.Fatal("no instructions retired")
			}
			t.Logf("%s tiny: checksum %#x, %d dynamic instructions", b.Name, sum, n)
		})
	}
}

// TestAllSmall validates the experiment-scale inputs. This is the exact
// workload every figure and table in the reproduction runs on.
func TestAllSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("small inputs take a few seconds; skipped with -short")
	}
	var total uint64
	for _, b := range All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			sum, n, err := b.RunReference(Small)
			if err != nil {
				t.Fatal(err)
			}
			total += n
			t.Logf("%s small: checksum %#x, %d dynamic instructions", b.Name, sum, n)
		})
	}
}

// TestDeterminism runs a kernel twice and expects identical checksums and
// instruction counts; every experiment depends on this.
func TestDeterminism(t *testing.T) {
	b, _ := ByName("crc32")
	s1, n1, err := b.RunReference(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	s2, n2, err := b.RunReference(Tiny)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 || n1 != n2 {
		t.Fatalf("non-deterministic run: (%#x,%d) vs (%#x,%d)", s1, n1, s2, n2)
	}
}

// TestInstructionMix sanity-checks that the suite exercises the instruction
// classes the CGRA cares about: loads, stores, branches, multiplies.
func TestInstructionMix(t *testing.T) {
	classes := make(map[isa.Class]uint64)
	for _, b := range All() {
		c, err := b.NewCore(Tiny)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Run(b.MaxInstructions, func(r gpp.Retire) {
			classes[r.Inst.Op.Class()]++
		}); err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
	}
	for _, cl := range []isa.Class{isa.ClassALU, isa.ClassLoad, isa.ClassStore, isa.ClassBranch, isa.ClassMul} {
		if classes[cl] == 0 {
			t.Errorf("suite never exercises class %d", cl)
		}
	}
	if classes[isa.ClassDiv] == 0 {
		t.Error("suite never exercises the divider (susan_smoothing should)")
	}
}

// TestSymbolsDoNotOverlapText ensures each benchmark's data region starts
// above the text segment.
func TestSymbolsDoNotOverlapText(t *testing.T) {
	for _, b := range All() {
		p, err := b.Assemble()
		if err != nil {
			t.Fatal(err)
		}
		textEnd := p.AddrOf(len(p.Text))
		for name, addr := range b.Symbols {
			if addr < textEnd {
				t.Errorf("%s: symbol %s at %#x overlaps text (ends %#x)",
					b.Name, name, addr, textEnd)
			}
		}
	}
}

func TestSizeString(t *testing.T) {
	if Tiny.String() != "tiny" || Small.String() != "small" || Large.String() != "large" {
		t.Error("Size.String wrong")
	}
	if Size(99).String() == "" {
		t.Error("unknown size should still format")
	}
}

// TestRecordMatchesReference pins the retire-stream recording every
// co-simulation replays: for each benchmark at Tiny the stream holds
// exactly the reference run's dynamic instruction count and the recording
// core passes Check.
func TestRecordMatchesReference(t *testing.T) {
	for _, b := range All() {
		_, dynamic, err := b.RunReference(Tiny)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		c, err := b.NewCore(Tiny)
		if err != nil {
			t.Fatal(err)
		}
		s, err := gpp.Record(c, b.MaxInstructions)
		if err != nil {
			t.Fatalf("%s: record: %v", b.Name, err)
		}
		if uint64(len(s.Retires)) != dynamic {
			t.Errorf("%s: recorded %d retires, reference retired %d", b.Name, len(s.Retires), dynamic)
		}
		if err := b.Check(c.Mem, c.Regs[isa.A0], Tiny); err != nil {
			t.Errorf("%s: recording core fails Check: %v", b.Name, err)
		}
	}
}
