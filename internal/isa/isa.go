// Package isa defines the instruction-set model shared by the functional
// emulator and the cycle-level timing simulator.
//
// The baseline scalar ISA is Alpha-like (as in the paper, every multimedia
// extension is layered on top of the Alpha ISA). Three multimedia extension
// families are modelled:
//
//   - MMX-like: packed 64-bit SIMD operations on 32 logical media registers.
//   - MDMX-like: the same packed operations plus 192-bit packed accumulators.
//   - MOM: matrix registers of 16 x 64-bit packed words executed under a
//     vector-length (VL) register, with strided vector memory instructions
//     and matrix accumulator operations.
//
// Vector (MOM) variants of packed opcodes are derived mechanically: for a
// packed opcode op, op.Vector() is the MOM opcode that applies op to every
// active word of the matrix register operands.
package isa

import (
	"fmt"
	"sort"
)

// RegKind identifies an architectural register file.
type RegKind uint8

const (
	KindNone   RegKind = iota
	KindInt            // R0..R31 (R31 hardwired to zero)
	KindFP             // F0..F31
	KindMedia          // M0..M31 64-bit packed multimedia registers
	KindAcc            // A0..A3 192-bit packed accumulators (MDMX)
	KindMom            // V0..V15 matrix registers (16 x 64-bit words)
	KindMomAcc         // VA0..VA1 MOM 192-bit packed accumulators
	KindVL             // the vector-length register (renamed via the int pool)
)

func (k RegKind) String() string {
	switch k {
	case KindNone:
		return "none"
	case KindInt:
		return "int"
	case KindFP:
		return "fp"
	case KindMedia:
		return "media"
	case KindAcc:
		return "acc"
	case KindMom:
		return "mom"
	case KindMomAcc:
		return "momacc"
	case KindVL:
		return "vl"
	}
	return "?"
}

// Reg is an architectural register operand.
type Reg struct {
	Kind RegKind
	Idx  uint8
}

// Register constructors.
func R(i int) Reg  { return Reg{KindInt, uint8(i)} }
func F(i int) Reg  { return Reg{KindFP, uint8(i)} }
func M(i int) Reg  { return Reg{KindMedia, uint8(i)} }
func A(i int) Reg  { return Reg{KindAcc, uint8(i)} }
func V(i int) Reg  { return Reg{KindMom, uint8(i)} }
func VA(i int) Reg { return Reg{KindMomAcc, uint8(i)} }

// VLReg is the architectural vector-length register.
var VLReg = Reg{KindVL, 0}

// Zero is the hardwired-zero integer register.
var Zero = R(31)

func (r Reg) Valid() bool { return r.Kind != KindNone }

func (r Reg) String() string {
	switch r.Kind {
	case KindNone:
		return "-"
	case KindInt:
		return fmt.Sprintf("r%d", r.Idx)
	case KindFP:
		return fmt.Sprintf("f%d", r.Idx)
	case KindMedia:
		return fmt.Sprintf("m%d", r.Idx)
	case KindAcc:
		return fmt.Sprintf("a%d", r.Idx)
	case KindMom:
		return fmt.Sprintf("v%d", r.Idx)
	case KindMomAcc:
		return fmt.Sprintf("va%d", r.Idx)
	case KindVL:
		return "vl"
	}
	return "?"
}

// Limits of the architectural register files (logical registers), following
// Table 2 of the paper.
const (
	NumInt    = 32
	NumFP     = 32
	NumMedia  = 32
	NumAcc    = 4
	NumMom    = 16
	NumMomAcc = 2
	// MaxVL is the number of 64-bit words in a MOM matrix register.
	MaxVL = 16
)

// Inst is one static instruction.
//
// Operand conventions:
//   - ALU ops: Dst <- Src[0] op Src[1]; if Src[1] is invalid the second
//     operand is the immediate Imm (Alpha-style literal form).
//   - Loads: Dst <- mem[Src[0] + Imm].
//   - Stores: mem[Src[1] + Imm] <- Src[0].
//   - Conditional branches test Src[0] against zero; Target is the index of
//     the destination instruction.
//   - MOM loads: Dst(V) <- mem[Src[0] + k*Src[1]] for k in 0..VL-1
//     (Src[1] is the stride register; Imm is added to the base).
//   - MOM stores: mem[Src[1] + Imm + k*Src[2]] <- Src[0](V) words.
//   - CMOV and PCMOV additionally read Dst.
type Inst struct {
	Op     Opcode
	Dst    Reg
	Src    [3]Reg
	Imm    int64
	Target int // branch target (static instruction index)
}

func (in Inst) String() string {
	info := in.Op.Info()
	s := info.Name
	if in.Dst.Valid() {
		s += " " + in.Dst.String()
	}
	for _, r := range in.Src {
		if r.Valid() {
			s += ", " + r.String()
		}
	}
	if in.Imm != 0 || !in.Src[1].Valid() {
		s += fmt.Sprintf(", #%d", in.Imm)
	}
	if in.Op.Info().Class == ClassBranch {
		s += fmt.Sprintf(" -> @%d", in.Target)
	}
	return s
}

// Program is a complete executable unit: code plus an initial data image.
type Program struct {
	Name     string
	Insts    []Inst
	Data     []byte            // initial data segment contents
	DataBase uint64            // base address of the data segment
	Symbols  map[string]uint64 // symbol -> address
	MemSize  uint64            // total memory to reserve (>= DataBase+len(Data))
}

// Sym returns the address of a named data symbol, panicking if absent
// (program construction is a build-time activity; a missing symbol is a
// programming error, not a runtime condition).
func (p *Program) Sym(name string) uint64 {
	a, ok := p.Symbols[name]
	if !ok {
		panic("isa: unknown symbol " + name)
	}
	return a
}

// StaticStats summarises the static composition of a program.
type StaticStats struct {
	Total    int
	ByClass  map[Class]int
	Branches int
}

// Stats computes static statistics for the program.
func (p *Program) Stats() StaticStats {
	st := StaticStats{ByClass: make(map[Class]int)}
	for _, in := range p.Insts {
		st.Total++
		c := in.Op.Info().Class
		st.ByClass[c]++
		if c == ClassBranch {
			st.Branches++
		}
	}
	return st
}

// ClassesByCount orders the classes of an operation mix by count, most
// frequent first, with equal counts in name order, so a printed mix reads
// the same on every run.
func ClassesByCount[N int | uint64](mix map[Class]N) []Class {
	cs := make([]Class, 0, len(mix))
	for c := range mix {
		cs = append(cs, c)
	}
	sort.Slice(cs, func(i, j int) bool {
		if mix[cs[i]] != mix[cs[j]] {
			return mix[cs[i]] > mix[cs[j]]
		}
		return cs[i].String() < cs[j].String()
	})
	return cs
}
