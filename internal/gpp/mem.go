// Package gpp models the general-purpose processor of the TransRec system:
// a single-issue, in-order RV32IM core with a flat memory and a simple,
// deterministic timing model. It plays the role gem5's TimingSimple CPU
// plays in the paper's evaluation: it executes the benchmark functionally
// and provides the retired-instruction stream that feeds the DBT module.
package gpp

import (
	"encoding/binary"
	"fmt"
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
type Memory struct {
	data []byte
}

// NewMemory returns a zeroed memory of the given size in bytes.
func NewMemory(size int) *Memory {
	return &Memory{data: make([]byte, size)}
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
	binary.LittleEndian.PutUint32(m.data[addr:], v)
	return nil
}

// StoreHalf writes a 16-bit little-endian halfword.
func (m *Memory) StoreHalf(addr uint32, v uint16) error {
	if err := m.check(addr, 2, "store"); err != nil {
		return err
	}
	binary.LittleEndian.PutUint16(m.data[addr:], v)
	return nil
}

// StoreByte writes one byte.
func (m *Memory) StoreByte(addr uint32, v byte) error {
	if err := m.check(addr, 1, "store"); err != nil {
		return err
	}
	m.data[addr] = v
	return nil
}

// WriteBytes copies buf into memory at addr.
func (m *Memory) WriteBytes(addr uint32, buf []byte) error {
	if err := m.check(addr, len(buf), "store"); err != nil {
		return err
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
