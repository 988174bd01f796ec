// Package gpp models the general-purpose processor of the TransRec system:
// a single-issue, in-order RV32IM core with a flat memory and a simple,
// deterministic timing model. It plays the role gem5's TimingSimple CPU
// plays in the paper's evaluation: it executes the benchmark functionally
// and provides the retired-instruction stream that feeds the DBT module.
package gpp

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// Default memory layout. Text sits low, static data in the middle, the stack
// grows down from the top.
const (
	TextBase  = 0x1000
	DataBase  = 0x10000
	MemSize   = 1 << 21 // 2 MiB
	StackTop  = MemSize - 16
	WordBytes = 4
)

// Memory is a flat little-endian byte-addressable memory.
//
// Every mutation marks its 4 KiB page in a dirty bitmap, which is what
// makes the Release/NewMemory pool cheap: a recycled memory only zeroes
// the pages its previous life touched (program text, static data, the few
// stack pages a kernel uses) instead of the whole image. Loops that
// interpret a benchmark over and over (a harness timing dbt.RunGPPOnly or
// dbt.Engine.Run, the suite-wide tests) build one core per run, so without
// the pool the 2 MiB zeroing dominates their allocation cost.
type Memory struct {
	data  []byte
	dirty []uint64 // 1 bit per 4 KiB page
}

const (
	pageShift = 12 // 4 KiB dirty-tracking granularity
	pageBytes = 1 << pageShift
)

// memPool recycles full-sized (MemSize) memories, the only size the
// simulator allocates in steady state. Odd-sized memories (tests) are
// allocated fresh.
var memPool = sync.Pool{}

// NewMemory returns a zeroed memory of the given size in bytes, recycling
// a released one when available: a pooled memory has only its previously
// dirtied pages zeroed, which is byte-for-byte identical to a fresh
// allocation because clean pages were never written.
func NewMemory(size int) *Memory {
	if size == MemSize {
		if v := memPool.Get(); v != nil {
			m := v.(*Memory)
			m.scrub()
			return m
		}
	}
	pages := (size + pageBytes - 1) / pageBytes
	return &Memory{
		data:  make([]byte, size),
		dirty: make([]uint64, (pages+63)/64),
	}
}

// Release returns the memory to the pool. The caller must not touch it
// afterwards; the next NewMemory of the same size may hand it out again.
func (m *Memory) Release() {
	if len(m.data) == MemSize {
		memPool.Put(m)
	}
}

// scrub zeroes every dirty page and clears the bitmap, restoring the
// all-zero state of a fresh allocation.
func (m *Memory) scrub() {
	for w, set := range m.dirty {
		for set != 0 {
			page := w*64 + bits.TrailingZeros64(set)
			lo := page << pageShift
			hi := lo + pageBytes
			if hi > len(m.data) {
				hi = len(m.data)
			}
			clear(m.data[lo:hi])
			set &= set - 1
		}
		m.dirty[w] = 0
	}
}

// mark flags the page containing addr as dirty; the store paths call it
// for the first and last byte of every write.
func (m *Memory) mark(addr uint32) {
	p := addr >> pageShift
	m.dirty[p>>6] |= 1 << (p & 63)
}

// Size returns the memory size in bytes.
func (m *Memory) Size() int { return len(m.data) }

// AccessError describes an out-of-bounds memory access.
type AccessError struct {
	Addr uint32
	Size int
	Op   string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("gpp: %s of %d bytes at %#x out of bounds", e.Op, e.Size, e.Addr)
}

func (m *Memory) check(addr uint32, size int, op string) error {
	if int64(addr)+int64(size) > int64(len(m.data)) {
		return &AccessError{Addr: addr, Size: size, Op: op}
	}
	return nil
}

// LoadWord reads a 32-bit little-endian word.
func (m *Memory) LoadWord(addr uint32) (uint32, error) {
	if err := m.check(addr, 4, "load"); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(m.data[addr:]), nil
}

// LoadHalf reads a 16-bit little-endian halfword.
func (m *Memory) LoadHalf(addr uint32) (uint16, error) {
	if err := m.check(addr, 2, "load"); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint16(m.data[addr:]), nil
}

// LoadByte reads one byte.
func (m *Memory) LoadByte(addr uint32) (byte, error) {
	if err := m.check(addr, 1, "load"); err != nil {
		return 0, err
	}
	return m.data[addr], nil
}

// StoreWord writes a 32-bit little-endian word.
func (m *Memory) StoreWord(addr uint32, v uint32) error {
	if err := m.check(addr, 4, "store"); err != nil {
		return err
	}
	m.mark(addr)
	m.mark(addr + 3)
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return nil
}

// StoreHalf writes a 16-bit little-endian halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) error {
	if err := m.check(addr, 2, "store"); err != nil {
		return err
	}
	m.mark(addr)
	m.mark(addr + 1)
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	return nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	if err := m.check(addr, 1, "store"); err != nil {
		return err
	}
	m.mark(addr)
	m.data[addr] = v
	return nil
}

// WriteBytes copies buf into memory at addr.
func (m *Memory) WriteBytes(addr uint32, buf []byte) error {
	if err := m.check(addr, len(buf), "store"); err != nil {
		return err
	}
	if len(buf) > 0 {
		for p := addr >> pageShift; p <= (addr+uint32(len(buf))-1)>>pageShift; p++ {
			m.dirty[p>>6] |= 1 << (p & 63)
		}
	}
	copy(m.data[addr:], buf)
	return nil
}

// ReadBytes copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadBytes(addr uint32, n int) ([]byte, error) {
	if err := m.check(addr, n, "load"); err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, m.data[addr:])
	return out, nil
}

// WriteWords writes a word slice starting at addr.
func (m *Memory) WriteWords(addr uint32, words []uint32) error {
	if err := m.check(addr, len(words)*4, "store"); err != nil {
		return err
	}
	if len(words) > 0 {
		for p := addr >> pageShift; p <= (addr+uint32(len(words)*4)-1)>>pageShift; p++ {
			m.dirty[p>>6] |= 1 << (p & 63)
		}
	}
	for i, w := range words {
		binary.LittleEndian.PutUint32(m.data[addr+uint32(i)*4:], w)
	}
	return nil
}

// ReadWords reads n words starting at addr.
func (m *Memory) ReadWords(addr uint32, n int) ([]uint32, error) {
	if err := m.check(addr, n*4, "load"); err != nil {
		return nil, err
	}
	out := make([]uint32, n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(m.data[addr+uint32(i)*4:])
	}
	return out, nil
}
