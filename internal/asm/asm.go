// Package asm provides a small program-builder API ("assembler") used to
// express workloads in the modelled ISAs. It plays the role the hand-written
// emulation-library calls played in the paper: kernels and applications are
// written against this API and compiled into isa.Programs executed by the
// functional emulator and timed by the cycle-level simulator.
//
// The builder supports labels with forward references, structured loop
// helpers, and a data-segment allocator with named symbols.
package asm

import (
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
)

// DataBase is the base address of every program's data segment. A non-zero
// base means address 0 is never valid, catching uninitialised pointers.
const DataBase = 0x10000

// Builder incrementally constructs an isa.Program.
type Builder struct {
	name    string
	insts   []isa.Inst
	labels  map[string]int // label -> instruction index
	fixups  map[int]string // instruction index -> unresolved label
	symbols map[string]uint64
	data    []byte
	nextLbl int
}

// New returns an empty Builder for a program with the given name.
func New(name string) *Builder {
	return &Builder{
		name:    name,
		labels:  make(map[string]int),
		fixups:  make(map[int]string),
		symbols: make(map[string]uint64),
	}
}

// ---- Data segment ----

// Alloc reserves size bytes aligned to align and binds them to a symbol.
// It returns the absolute address.
func (b *Builder) Alloc(name string, size int, align int) uint64 {
	if align <= 0 {
		align = 8
	}
	if _, dup := b.symbols[name]; dup {
		panic("asm: duplicate symbol " + name)
	}
	for len(b.data)%align != 0 {
		b.data = append(b.data, 0)
	}
	addr := DataBase + uint64(len(b.data))
	b.data = append(b.data, make([]byte, size)...)
	b.symbols[name] = addr
	return addr
}

// AllocBytes reserves and initialises a byte region.
func (b *Builder) AllocBytes(name string, content []byte, align int) uint64 {
	addr := b.Alloc(name, len(content), align)
	copy(b.data[addr-DataBase:], content)
	return addr
}

// AllocH reserves and initialises a region of 16-bit little-endian values.
func (b *Builder) AllocH(name string, vals []int16, align int) uint64 {
	if align < 2 {
		align = 8
	}
	addr := b.Alloc(name, 2*len(vals), align)
	for i, v := range vals {
		binary.LittleEndian.PutUint16(b.data[addr-DataBase+uint64(2*i):], uint16(v))
	}
	return addr
}

// AllocW reserves and initialises a region of 32-bit little-endian values.
func (b *Builder) AllocW(name string, vals []int32, align int) uint64 {
	if align < 4 {
		align = 8
	}
	addr := b.Alloc(name, 4*len(vals), align)
	for i, v := range vals {
		binary.LittleEndian.PutUint32(b.data[addr-DataBase+uint64(4*i):], uint32(v))
	}
	return addr
}

// AllocQ reserves and initialises a region of 64-bit little-endian values.
func (b *Builder) AllocQ(name string, vals []uint64, align int) uint64 {
	if align < 8 {
		align = 8
	}
	addr := b.Alloc(name, 8*len(vals), align)
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b.data[addr-DataBase+uint64(8*i):], v)
	}
	return addr
}

// Sym returns the address of a previously allocated symbol.
func (b *Builder) Sym(name string) uint64 {
	a, ok := b.symbols[name]
	if !ok {
		panic("asm: unknown symbol " + name)
	}
	return a
}

// ---- Raw emission ----

// Emit appends a raw instruction and returns its index.
func (b *Builder) Emit(in isa.Inst) int {
	b.insts = append(b.insts, in)
	return len(b.insts) - 1
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.insts) }

// Op emits a three-register operation.
func (b *Builder) Op(op isa.Opcode, dst, s0, s1 isa.Reg) {
	b.Emit(isa.Inst{Op: op, Dst: dst, Src: [3]isa.Reg{s0, s1}})
}

// OpI emits an operation whose second operand is an immediate.
func (b *Builder) OpI(op isa.Opcode, dst, s0 isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Dst: dst, Src: [3]isa.Reg{s0}, Imm: imm})
}

// ---- Scalar helpers ----

// MovI loads a 64-bit immediate into an integer register.
func (b *Builder) MovI(dst isa.Reg, v int64) { b.OpI(isa.LDA, dst, isa.Zero, v) }

// Mov copies an integer register.
func (b *Builder) Mov(dst, src isa.Reg) { b.OpI(isa.LDA, dst, src, 0) }

// AddI emits dst = src + imm.
func (b *Builder) AddI(dst, src isa.Reg, imm int64) { b.OpI(isa.LDA, dst, src, imm) }

// Add emits dst = a + b.
func (b *Builder) Add(dst, a, c isa.Reg) { b.Op(isa.ADDQ, dst, a, c) }

// Sub emits dst = a - b.
func (b *Builder) Sub(dst, a, c isa.Reg) { b.Op(isa.SUBQ, dst, a, c) }

// Mul emits dst = a * b.
func (b *Builder) Mul(dst, a, c isa.Reg) { b.Op(isa.MULQ, dst, a, c) }

// MulI emits dst = a * imm.
func (b *Builder) MulI(dst, a isa.Reg, imm int64) { b.OpI(isa.MULQ, dst, a, imm) }

// SllI emits dst = a << imm.
func (b *Builder) SllI(dst, a isa.Reg, imm int64) { b.OpI(isa.SLL, dst, a, imm) }

// SraI emits dst = a >> imm (arithmetic).
func (b *Builder) SraI(dst, a isa.Reg, imm int64) { b.OpI(isa.SRA, dst, a, imm) }

// SrlI emits dst = a >> imm (logical).
func (b *Builder) SrlI(dst, a isa.Reg, imm int64) { b.OpI(isa.SRL, dst, a, imm) }

// AndI emits dst = a & imm.
func (b *Builder) AndI(dst, a isa.Reg, imm int64) { b.OpI(isa.AND, dst, a, imm) }

// Load helpers: dst <- mem[base+off].
func (b *Builder) Ldbu(dst, base isa.Reg, off int64) { b.OpI(isa.LDBU, dst, base, off) }
func (b *Builder) Ldwu(dst, base isa.Reg, off int64) { b.OpI(isa.LDWU, dst, base, off) }
func (b *Builder) Ldl(dst, base isa.Reg, off int64)  { b.OpI(isa.LDL, dst, base, off) }
func (b *Builder) Ldq(dst, base isa.Reg, off int64)  { b.OpI(isa.LDQ, dst, base, off) }

// Store helpers: mem[base+off] <- val.
func (b *Builder) Stb(val, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.STB, Src: [3]isa.Reg{val, base}, Imm: off})
}
func (b *Builder) Stw(val, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.STW, Src: [3]isa.Reg{val, base}, Imm: off})
}
func (b *Builder) Stq(val, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.STQ, Src: [3]isa.Reg{val, base}, Imm: off})
}

// Media load/store.
func (b *Builder) Ldm(dst, base isa.Reg, off int64) { b.OpI(isa.LDQM, dst, base, off) }
func (b *Builder) Stm(val, base isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.STQM, Src: [3]isa.Reg{val, base}, Imm: off})
}

// ---- MOM helpers ----

// SetVLI sets the vector length to a constant.
func (b *Builder) SetVLI(vl int) {
	b.Emit(isa.Inst{Op: isa.SETVLI, Dst: isa.VLReg, Imm: int64(vl)})
}

// SetVL sets the vector length from a register (clamped to MaxVL).
func (b *Builder) SetVL(src isa.Reg) {
	b.Emit(isa.Inst{Op: isa.SETVL, Dst: isa.VLReg, Src: [3]isa.Reg{src}})
}

// MomLd emits a MOM strided vector load: v <- mem[base+off + k*stride].
func (b *Builder) MomLd(v, base, stride isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.MOMLDQ, Dst: v, Src: [3]isa.Reg{base, stride}, Imm: off})
}

// MomSt emits a MOM strided vector store.
func (b *Builder) MomSt(v, base, stride isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.MOMSTQ, Src: [3]isa.Reg{v, base, stride}, Imm: off})
}

// ---- Labels and branches ----

// genLabel returns a fresh internal label name.
func (b *Builder) genLabel(prefix string) string {
	b.nextLbl++
	return fmt.Sprintf(".%s%d", prefix, b.nextLbl)
}

// Label binds name to the next instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		panic("asm: duplicate label " + name)
	}
	b.labels[name] = len(b.insts)
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) { b.branch(isa.BR, isa.Reg{}, label) }

// Branch helpers testing a register against zero.
func (b *Builder) Beq(r isa.Reg, label string) { b.branch(isa.BEQ, r, label) }
func (b *Builder) Bgt(r isa.Reg, label string) { b.branch(isa.BGT, r, label) }

func (b *Builder) branch(op isa.Opcode, r isa.Reg, label string) {
	idx := b.Emit(isa.Inst{Op: op, Src: [3]isa.Reg{r}, Target: -1})
	b.fixups[idx] = label
}

// ---- Structured loops ----

// Loop emits a counted loop running body count times, counting the register
// ctr from count down to 1 (do-while form, one branch per iteration). The
// body must not clobber ctr. count must be >= 1.
func (b *Builder) Loop(ctr isa.Reg, count int64, body func()) {
	if count < 1 {
		panic("asm: Loop count must be >= 1")
	}
	b.MovI(ctr, count)
	top := b.genLabel("loop")
	b.Label(top)
	body()
	b.OpI(isa.SUBQ, ctr, ctr, 1)
	b.Bgt(ctr, top)
}

// LoopVar emits a loop with an induction variable idx stepping from start by
// step, executing body count times. ctr is a scratch counter register.
func (b *Builder) LoopVar(ctr, idx isa.Reg, start, step, count int64, body func()) {
	b.MovI(idx, start)
	b.Loop(ctr, count, func() {
		body()
		b.AddI(idx, idx, step)
	})
}

// LoopDyn emits a do-while loop running until ctr (already loaded with a
// positive count) reaches zero. The body must not clobber ctr.
func (b *Builder) LoopDyn(ctr isa.Reg, body func()) {
	top := b.genLabel("loopd")
	b.Label(top)
	body()
	b.OpI(isa.SUBQ, ctr, ctr, 1)
	b.Bgt(ctr, top)
}

// While emits a top-tested loop: while (cond(r) != 0) body. The caller emits
// the condition computation inside cond, leaving the test value in r.
func (b *Builder) While(r isa.Reg, cond func(), body func()) {
	top := b.genLabel("while")
	done := b.genLabel("endw")
	b.Label(top)
	cond()
	b.Beq(r, done)
	body()
	b.Br(top)
	b.Label(done)
}

// If emits: if (r != 0) then(); optional els().
func (b *Builder) If(r isa.Reg, then func(), els func()) {
	elseL := b.genLabel("else")
	endL := b.genLabel("endif")
	b.Beq(r, elseL)
	then()
	if els != nil {
		b.Br(endL)
	}
	b.Label(elseL)
	if els != nil {
		els()
		b.Label(endL)
	}
}

// ---- Build ----

// Build resolves all label references and returns the finished Program.
func (b *Builder) Build() *isa.Program {
	insts := make([]isa.Inst, len(b.insts))
	copy(insts, b.insts)
	for idx, label := range b.fixups {
		t, ok := b.labels[label]
		if !ok {
			panic("asm: undefined label " + label)
		}
		insts[idx].Target = t
	}
	// Terminate: Build appends a final NOP so PC == len(insts) is the sole
	// halt condition and every branch target is in range.
	for idx := range insts {
		if insts[idx].Op.Info().Class == isa.ClassBranch {
			if insts[idx].Target < 0 || insts[idx].Target > len(insts) {
				panic(fmt.Sprintf("asm: branch at %d has bad target %d", idx, insts[idx].Target))
			}
		}
	}
	data := make([]byte, len(b.data))
	copy(data, b.data)
	syms := make(map[string]uint64, len(b.symbols))
	for k, v := range b.symbols {
		syms[k] = v
	}
	memSize := uint64(DataBase) + uint64(len(data))
	// Round memory up to a page-ish boundary with headroom.
	memSize = (memSize + 0xfff) &^ 0xfff
	return &isa.Program{
		Name:     b.name,
		Insts:    insts,
		Data:     data,
		DataBase: DataBase,
		Symbols:  syms,
		MemSize:  memSize,
	}
}
