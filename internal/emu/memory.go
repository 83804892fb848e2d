package emu

import (
	"encoding/binary"
	"fmt"
)

// Memory is the flat little-endian byte-addressable memory image a program
// executes against.
type Memory struct {
	buf []byte
}

// NewMemory allocates a memory image of the given size in bytes.
func NewMemory(size uint64) *Memory {
	return &Memory{buf: make([]byte, size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint64 { return uint64(len(m.buf)) }

// memFault is panicked on out-of-range accesses and recovered by the
// guard of the entry point executing the instruction (Machine.guard).
type memFault struct {
	addr uint64
	size int
}

func (f memFault) Error() string {
	return fmt.Sprintf("memory fault: access of %d bytes at %#x", f.size, f.addr)
}

func (m *Memory) check(addr uint64, size int) {
	if addr+uint64(size) > uint64(len(m.buf)) || addr+uint64(size) < addr {
		panic(memFault{addr, size})
	}
}

// Load8 reads a byte.
func (m *Memory) Load8(addr uint64) uint8 {
	m.check(addr, 1)
	return m.buf[addr]
}

// Load16 reads a little-endian 16-bit value (unaligned permitted).
func (m *Memory) Load16(addr uint64) uint16 {
	m.check(addr, 2)
	return binary.LittleEndian.Uint16(m.buf[addr:])
}

// Load32 reads a little-endian 32-bit value.
func (m *Memory) Load32(addr uint64) uint32 {
	m.check(addr, 4)
	return binary.LittleEndian.Uint32(m.buf[addr:])
}

// Load64 reads a little-endian 64-bit value.
func (m *Memory) Load64(addr uint64) uint64 {
	m.check(addr, 8)
	return binary.LittleEndian.Uint64(m.buf[addr:])
}

// Store8 writes a byte.
func (m *Memory) Store8(addr uint64, v uint8) {
	m.check(addr, 1)
	m.buf[addr] = v
}

// Store16 writes a little-endian 16-bit value.
func (m *Memory) Store16(addr uint64, v uint16) {
	m.check(addr, 2)
	binary.LittleEndian.PutUint16(m.buf[addr:], v)
}

// Store32 writes a little-endian 32-bit value.
func (m *Memory) Store32(addr uint64, v uint32) {
	m.check(addr, 4)
	binary.LittleEndian.PutUint32(m.buf[addr:], v)
}

// Store64 writes a little-endian 64-bit value.
func (m *Memory) Store64(addr uint64, v uint64) {
	m.check(addr, 8)
	binary.LittleEndian.PutUint64(m.buf[addr:], v)
}

// Bytes returns a view of size bytes at addr (for result extraction in
// tests and golden comparisons).
func (m *Memory) Bytes(addr uint64, size int) []byte {
	m.check(addr, size)
	return m.buf[addr : addr+uint64(size)]
}
