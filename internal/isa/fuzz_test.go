package isa_test

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"agingcgra/internal/isa"
	"agingcgra/internal/prog"
)

// TestProgramsEncodeDecodeRoundTrip asserts the fixed point the DBT relies
// on over the real workload suite: assemble → encode → decode reproduces
// every instruction of every benchmark exactly, and re-encoding the decoded
// instruction reproduces the machine word.
func TestProgramsEncodeDecodeRoundTrip(t *testing.T) {
	for _, b := range prog.All() {
		p, err := b.Assemble()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for i, inst := range p.Text {
			w, err := isa.Encode(inst)
			if err != nil {
				t.Fatalf("%s[%d]: encode %v: %v", b.Name, i, inst, err)
			}
			back, err := isa.Decode(w)
			if err != nil {
				t.Fatalf("%s[%d]: decode %#08x (%v): %v", b.Name, i, w, inst, err)
			}
			if back != inst {
				t.Fatalf("%s[%d]: round trip %v -> %#08x -> %v", b.Name, i, inst, w, back)
			}
			w2, err := isa.Encode(back)
			if err != nil || w2 != w {
				t.Fatalf("%s[%d]: re-encode %v -> %#08x, want %#08x (err %v)",
					b.Name, i, back, w2, w, err)
			}
		}
	}
}

// FuzzEncodeDecode fuzzes the decoder with arbitrary 32-bit words and
// asserts that every decodable word round-trips: Encode(Decode(w)) must be
// decodable to the identical instruction, and encode→decode→encode must be
// a fixed point. The seed corpus is the assembled instruction stream of the
// whole benchmark suite, so the fuzzer starts from every encoding shape the
// subset actually uses. CI runs this as a short -fuzztime smoke.
func FuzzEncodeDecode(f *testing.F) {
	for _, b := range prog.All() {
		p, err := b.Assemble()
		if err != nil {
			f.Fatal(err)
		}
		for _, inst := range p.Text {
			w, err := isa.Encode(inst)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(w)
		}
	}
	f.Add(uint32(0x00000073)) // ecall
	f.Add(uint32(0))          // undecodable
	f.Add(^uint32(0))

	f.Fuzz(func(t *testing.T, w uint32) {
		inst, err := isa.Decode(w)
		if err != nil {
			return // not part of the subset; nothing to round-trip
		}
		w2, err := isa.Encode(inst)
		if err != nil {
			t.Fatalf("decoded %#08x to %v but cannot re-encode: %v", w, inst, err)
		}
		back, err := isa.Decode(w2)
		if err != nil {
			t.Fatalf("re-encoded %v to %#08x but cannot decode: %v", inst, w2, err)
		}
		if back != inst {
			t.Fatalf("round trip diverged: %#08x -> %v -> %#08x -> %v", w, inst, w2, back)
		}
		w3, err := isa.Encode(back)
		if err != nil || w3 != w2 {
			t.Fatalf("encode not a fixed point: %#08x vs %#08x (err %v)", w2, w3, err)
		}
	})
}

// lineErr is the shape of every Assemble error: the 1-based source line,
// then the reason.
var lineErr = regexp.MustCompile(`^line ([0-9]+): `)

// FuzzAssemble fuzzes the assembler with arbitrary source. Assemble must
// never panic; it either rejects the source with an error naming a line
// of it, or every instruction it emits reaches the encode → decode fixed
// point, so a program that assembles is one the machine-word form carries
// exactly. The seed corpus is the benchmark suite's sources, assembled
// against the union of their data symbols. CI runs this as a short
// -fuzztime smoke.
func FuzzAssemble(f *testing.F) {
	symbols := map[string]uint32{}
	for _, b := range prog.All() {
		for name, addr := range b.Symbols {
			if _, ok := symbols[name]; !ok {
				symbols[name] = addr
			}
		}
		f.Add(b.Source)
	}
	f.Add("")
	f.Add("_start:\n\tli a0, 0x12345678\n\tla a1, 8\n\tbnez a0, _start\n\thalt\n")
	// Once accepted: Encode took a negative U immediate, which Decode
	// returns as its unsigned 20 bits.
	f.Add("lui a0, -1")
	// li of a label defined later (rejected, pointing to la) and operands
	// on a zero-operand mnemonic (rejected).
	f.Add("li a0, y\ny:\nhalt\n")
	f.Add("nop a0, a1")

	f.Fuzz(func(t *testing.T, src string) {
		p, err := isa.Assemble(src, isa.AsmOptions{Symbols: symbols})
		if err != nil {
			m := lineErr.FindStringSubmatch(err.Error())
			if m == nil {
				t.Fatalf("error without a line number: %v", err)
			}
			lines := strings.Count(src, "\n") + 1
			if n, _ := strconv.Atoi(m[1]); n < 1 || n > lines {
				t.Fatalf("error names line %d of a %d-line source: %v", n, lines, err)
			}
			return
		}
		for i, inst := range p.Text {
			w, err := isa.Encode(inst)
			if err != nil {
				t.Fatalf("text[%d]: assembled %v, which cannot encode: %v", i, inst, err)
			}
			back, err := isa.Decode(w)
			if err != nil {
				t.Fatalf("text[%d]: %v encodes to %#08x, which cannot decode: %v", i, inst, w, err)
			}
			if back != inst {
				t.Fatalf("text[%d]: %v -> %#08x -> %v", i, inst, w, back)
			}
			if w2, err := isa.Encode(back); err != nil || w2 != w {
				t.Fatalf("text[%d]: re-encode %v -> %#08x, want %#08x (err %v)", i, back, w2, w, err)
			}
		}
	})
}
