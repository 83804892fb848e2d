// Package emu implements the functional (architectural) emulator for the
// modelled ISAs. It executes an isa.Program against architectural state and
// a flat memory image, producing the dynamic instruction stream (resolved
// addresses, branch outcomes, vector lengths) that drives the cycle-level
// timing simulator — the same trace-driven methodology the paper used with
// ATOM feeding the Jinks simulator.
package emu

import (
	"errors"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/isa"
	"repro/internal/simd"
)

// Dyn is one dynamic (executed) instruction, as consumed by the timing model.
type Dyn struct {
	SI     int // static instruction index
	Op     isa.Opcode
	Class  isa.Class
	Taken  bool // branch outcome
	Target int  // branch destination (valid if Taken)
	EA     uint64
	Stride int64 // vector element stride in bytes
	NElem  int   // elements accessed (vector memory); 1 for scalar memory
	Size   int   // element size in bytes
	VL     int   // vector length governing this op (vector classes)
}

// Machine is the architectural state of one running program.
type Machine struct {
	Prog *isa.Program
	Mem  *Memory

	R  [isa.NumInt]uint64
	F  [isa.NumFP]float64
	M  [isa.NumMedia]uint64
	A  [isa.NumAcc]simd.Acc
	V  [isa.NumMom][isa.MaxVL]uint64
	VA [isa.NumMomAcc]simd.Acc
	VL int

	PC    int
	Steps uint64
	Err   error
}

// New creates a machine with the program loaded and memory initialised.
func New(p *isa.Program) *Machine {
	m := &Machine{Prog: p, VL: isa.MaxVL}
	size := p.MemSize
	if min := p.DataBase + uint64(len(p.Data)); size < min {
		size = min
	}
	m.Mem = NewMemory(size)
	copy(m.Mem.buf[p.DataBase:], p.Data)
	return m
}

// Done reports whether the program has run to completion.
func (m *Machine) Done() bool { return m.PC >= len(m.Prog.Insts) || m.Err != nil }

// op2 resolves the second ALU operand: register if valid, else immediate.
func (m *Machine) op2(in *isa.Inst) int64 {
	if in.Src[1].Valid() {
		return int64(m.reg(in.Src[1]))
	}
	return in.Imm
}

func (m *Machine) reg(r isa.Reg) uint64 {
	switch r.Kind {
	case isa.KindInt:
		if r.Idx == 31 {
			return 0
		}
		return m.R[r.Idx]
	case isa.KindMedia:
		return m.M[r.Idx]
	default:
		panic(fmt.Sprintf("emu: scalar read of %v", r))
	}
}

func (m *Machine) setInt(r isa.Reg, v uint64) {
	if r.Kind != isa.KindInt {
		panic(fmt.Sprintf("emu: int write to %v", r))
	}
	if r.Idx != 31 {
		m.R[r.Idx] = v
	}
}

func (m *Machine) setMedia(r isa.Reg, v uint64) {
	if r.Kind != isa.KindMedia {
		panic(fmt.Sprintf("emu: media write to %v", r))
	}
	m.M[r.Idx] = v
}

// acc returns the accumulator register operand (MDMX A or MOM VA).
func (m *Machine) acc(r isa.Reg) *simd.Acc {
	switch r.Kind {
	case isa.KindAcc:
		return &m.A[r.Idx]
	case isa.KindMomAcc:
		return &m.VA[r.Idx]
	default:
		panic(fmt.Sprintf("emu: accumulator operand is %v", r))
	}
}

// MetaTaken flags a taken branch in a record's meta byte (see Columns);
// the low five bits hold the vector length (0..MaxVL).
const MetaTaken = 0x80

// Columns is a run of dynamic records in column form, the layout a trace
// stores: the meta byte (vector length | MetaTaken) of every record, the
// effective address of every memory record in four bytes and the byte
// stride of every vector memory record in eight, each column in stream
// order, and the static index of the run's first record. Every control
// transfer is a direct branch (exec moves PC to PC+1 or to the branch
// target), so each later record's static index follows from its
// predecessor's and that record's taken bit (trace.Flow states the rule).
// Everything else about a record (opcode, class, branch target, element
// size and count) is a property of its static instruction.
type Columns struct {
	First  int32 // static index of the first record
	Meta   []uint8
	EA     []uint32
	Stride []int64
}

// ErrWideAddress is the fault that stops a recording (Record into columns)
// at an effective address the four-byte address column cannot hold. A
// bounds-checked access cannot produce one while the memory image is at
// most 4 GiB; a vector access at VL 0 moves no element, so nothing checks
// its base.
var ErrWideAddress = errors.New("effective address does not fit in 32 bits")

// guard turns a memory fault raised by the instruction at PC into Err.
// Every entry point that executes instructions defers it once, however
// many instructions it runs; any other panic goes on.
func (m *Machine) guard() {
	if r := recover(); r != nil {
		f, isFault := r.(memFault)
		if !isFault {
			panic(r)
		}
		m.Err = fmt.Errorf("%s: pc=%d %s: %w",
			m.Prog.Name, m.PC, m.Prog.Insts[m.PC].String(), error(f))
	}
}

// Step executes one instruction and returns its dynamic record.
// ok is false when the program has finished (or faulted; check m.Err).
func (m *Machine) Step() (d Dyn, ok bool) {
	if m.Done() {
		return Dyn{}, false
	}
	defer m.guard()
	pc, vl := m.PC, m.VL
	in := &m.Prog.Insts[pc]
	ea, stride, taken, executed := m.exec(in)
	if !executed {
		return Dyn{}, false
	}
	d = Dyn{SI: pc, Op: in.Op, Class: in.Op.Info().Class, Taken: taken, VL: vl}
	switch d.Class {
	case isa.ClassBranch:
		d.Target = in.Target
	case isa.ClassLoad, isa.ClassStore:
		d.EA, d.NElem, d.Size = ea, 1, in.Op.ElemSize()
	case isa.ClassMomLoad, isa.ClassMomStore:
		d.EA, d.Stride, d.NElem, d.Size = ea, stride, vl, in.Op.ElemSize()
	}
	return d, true
}

// Record executes up to max instructions under one fault guard, appending
// each one's record to c unless c is nil, and returns how many it
// executed; an empty c takes PC as its first static index. It stops early
// at the end of the program or on a fault (check Err); the records before
// a faulting instruction stay in c. When c is not nil, an effective
// address above 32 bits is such a fault (ErrWideAddress): that instruction
// has executed, but Record neither appends nor counts its record. It
// allocates nothing while c's columns have room for max more records.
func (m *Machine) Record(max uint64, c *Columns) (n uint64) {
	defer m.guard()
	if c != nil && len(c.Meta) == 0 {
		c.First = int32(m.PC)
	}
	insts := m.Prog.Insts
	for ; n < max && !m.Done(); n++ {
		pc, vl := m.PC, m.VL
		in := &insts[pc]
		ea, stride, taken, ok := m.exec(in)
		if !ok {
			break
		}
		if c == nil {
			continue
		}
		if ea > math.MaxUint32 { // exec returns 0 but for a memory access
			m.Err = fmt.Errorf("%s: pc=%d %s: %w: %#x", m.Prog.Name, pc, in.String(), ErrWideAddress, ea)
			return n
		}
		meta := uint8(vl)
		if taken {
			meta |= MetaTaken
		}
		c.Meta = append(c.Meta, meta)
		switch in.Op.Info().Class {
		case isa.ClassLoad, isa.ClassStore:
			c.EA = append(c.EA, uint32(ea))
		case isa.ClassMomLoad, isa.ClassMomStore:
			c.EA = append(c.EA, uint32(ea))
			c.Stride = append(c.Stride, stride)
		}
	}
	return n
}

// exec executes in, the instruction at PC, and returns its dynamic facts:
// the effective address (memory classes), the byte stride (vector memory
// classes) and the branch outcome. It advances PC and Steps. A memory
// fault panics with memFault, which the caller's guard records; any other
// fault sets Err and returns ok == false, leaving PC at the instruction.
func (m *Machine) exec(in *isa.Inst) (ea uint64, stride int64, taken, ok bool) {
	next := m.PC + 1

	switch in.Op {
	case isa.NOP:

	// ---- scalar integer ----
	case isa.LDA:
		m.setInt(in.Dst, m.reg(in.Src[0])+uint64(in.Imm))
	case isa.ADDQ:
		m.setInt(in.Dst, m.reg(in.Src[0])+uint64(m.op2(in)))
	case isa.SUBQ:
		m.setInt(in.Dst, m.reg(in.Src[0])-uint64(m.op2(in)))
	case isa.MULQ:
		m.setInt(in.Dst, uint64(int64(m.reg(in.Src[0]))*m.op2(in)))
	case isa.DIVQ:
		den := m.op2(in)
		if den == 0 {
			m.Err = fmt.Errorf("%s: pc=%d divide by zero", m.Prog.Name, m.PC)
			return 0, 0, false, false
		}
		m.setInt(in.Dst, uint64(int64(m.reg(in.Src[0]))/den))
	case isa.UMULH:
		hi, _ := mul64(m.reg(in.Src[0]), uint64(m.op2(in)))
		m.setInt(in.Dst, hi)
	case isa.AND:
		m.setInt(in.Dst, m.reg(in.Src[0])&uint64(m.op2(in)))
	case isa.OR:
		m.setInt(in.Dst, m.reg(in.Src[0])|uint64(m.op2(in)))
	case isa.XOR:
		m.setInt(in.Dst, m.reg(in.Src[0])^uint64(m.op2(in)))
	case isa.BIC:
		m.setInt(in.Dst, m.reg(in.Src[0])&^uint64(m.op2(in)))
	case isa.SLL:
		m.setInt(in.Dst, m.reg(in.Src[0])<<(uint64(m.op2(in))&63))
	case isa.SRL:
		m.setInt(in.Dst, m.reg(in.Src[0])>>(uint64(m.op2(in))&63))
	case isa.SRA:
		m.setInt(in.Dst, uint64(int64(m.reg(in.Src[0]))>>(uint64(m.op2(in))&63)))
	case isa.CMPEQ:
		m.setInt(in.Dst, b2u(int64(m.reg(in.Src[0])) == m.op2(in)))
	case isa.CMPLT:
		m.setInt(in.Dst, b2u(int64(m.reg(in.Src[0])) < m.op2(in)))
	case isa.CMPLE:
		m.setInt(in.Dst, b2u(int64(m.reg(in.Src[0])) <= m.op2(in)))
	case isa.CMPULT:
		m.setInt(in.Dst, b2u(m.reg(in.Src[0]) < uint64(m.op2(in))))
	case isa.CMPULE:
		m.setInt(in.Dst, b2u(m.reg(in.Src[0]) <= uint64(m.op2(in))))
	case isa.CMOVEQ:
		if int64(m.reg(in.Src[0])) == 0 {
			m.setInt(in.Dst, uint64(m.op2(in)))
		}
	case isa.CMOVNE:
		if int64(m.reg(in.Src[0])) != 0 {
			m.setInt(in.Dst, uint64(m.op2(in)))
		}
	case isa.CMOVLT:
		if int64(m.reg(in.Src[0])) < 0 {
			m.setInt(in.Dst, uint64(m.op2(in)))
		}
	case isa.CMOVGE:
		if int64(m.reg(in.Src[0])) >= 0 {
			m.setInt(in.Dst, uint64(m.op2(in)))
		}
	case isa.SEXTB:
		m.setInt(in.Dst, uint64(int64(int8(m.reg(in.Src[0])))))
	case isa.SEXTW:
		m.setInt(in.Dst, uint64(int64(int16(m.reg(in.Src[0])))))
	case isa.SEXTL:
		m.setInt(in.Dst, uint64(int64(int32(m.reg(in.Src[0])))))

	// ---- scalar memory ----
	case isa.LDBU:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		m.setInt(in.Dst, uint64(m.Mem.Load8(ea)))
	case isa.LDWU:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		m.setInt(in.Dst, uint64(m.Mem.Load16(ea)))
	case isa.LDL:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		m.setInt(in.Dst, uint64(int64(int32(m.Mem.Load32(ea)))))
	case isa.LDQ:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		m.setInt(in.Dst, m.Mem.Load64(ea))
	case isa.STB:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		m.Mem.Store8(ea, uint8(m.reg(in.Src[0])))
	case isa.STW:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		m.Mem.Store16(ea, uint16(m.reg(in.Src[0])))
	case isa.STL:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		m.Mem.Store32(ea, uint32(m.reg(in.Src[0])))
	case isa.STQ:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		m.Mem.Store64(ea, m.reg(in.Src[0]))
	case isa.LDT:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		m.F[in.Dst.Idx] = f64frombits(m.Mem.Load64(ea))
	case isa.STT:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		m.Mem.Store64(ea, f64bits(m.F[in.Src[0].Idx]))

	// ---- branches ----
	case isa.BR:
		taken, next = true, in.Target
	case isa.BEQ, isa.BNE, isa.BLT, isa.BLE, isa.BGT, isa.BGE:
		v := int64(m.reg(in.Src[0]))
		switch in.Op {
		case isa.BEQ:
			taken = v == 0
		case isa.BNE:
			taken = v != 0
		case isa.BLT:
			taken = v < 0
		case isa.BLE:
			taken = v <= 0
		case isa.BGT:
			taken = v > 0
		case isa.BGE:
			taken = v >= 0
		}
		if taken {
			next = in.Target
		}

	// ---- scalar FP ----
	case isa.ADDT:
		m.F[in.Dst.Idx] = m.F[in.Src[0].Idx] + m.F[in.Src[1].Idx]
	case isa.SUBT:
		m.F[in.Dst.Idx] = m.F[in.Src[0].Idx] - m.F[in.Src[1].Idx]
	case isa.MULT:
		m.F[in.Dst.Idx] = m.F[in.Src[0].Idx] * m.F[in.Src[1].Idx]
	case isa.DIVT:
		m.F[in.Dst.Idx] = m.F[in.Src[0].Idx] / m.F[in.Src[1].Idx]
	case isa.CVTQT:
		m.F[in.Dst.Idx] = float64(int64(m.reg(in.Src[0])))
	case isa.CVTTQ:
		m.setInt(in.Dst, uint64(int64(m.F[in.Src[0].Idx])))

	// ---- media moves / loads ----
	case isa.LDQM:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		m.setMedia(in.Dst, m.Mem.Load64(ea))
	case isa.STQM:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		m.Mem.Store64(ea, m.M[in.Src[0].Idx])
	case isa.MTM:
		m.setMedia(in.Dst, m.reg(in.Src[0]))
	case isa.MFM:
		m.setInt(in.Dst, m.M[in.Src[0].Idx])
	case isa.PZERO:
		m.setMedia(in.Dst, 0)

	// ---- accumulator readback (shared by MDMX A and MOM VA) ----
	case isa.RACH:
		m.setMedia(in.Dst, m.acc(in.Src[0]).ReadH(uint(in.Imm)))
	case isa.RACB:
		m.setMedia(in.Dst, m.acc(in.Src[0]).ReadB(uint(in.Imm)))
	case isa.RACSUM:
		a := m.acc(in.Src[0])
		if in.Imm == 0 { // byte mode
			m.setInt(in.Dst, uint64(a.SumB()))
		} else { // halfword mode
			m.setInt(in.Dst, uint64(a.SumH()))
		}
	case isa.WACH:
		m.acc(in.Dst).WriteH(m.M[in.Src[0].Idx])
	case isa.WACB:
		m.acc(in.Dst).WriteB(m.M[in.Src[0].Idx])

	// ---- MOM control and memory ----
	case isa.SETVL:
		v := int64(m.reg(in.Src[0]))
		if v < 0 {
			v = 0
		}
		if v > isa.MaxVL {
			v = isa.MaxVL
		}
		m.VL = int(v)
	case isa.SETVLI:
		v := in.Imm
		if v < 0 || v > isa.MaxVL {
			m.Err = fmt.Errorf("%s: pc=%d setvli %d out of range", m.Prog.Name, m.PC, v)
			return 0, 0, false, false
		}
		m.VL = int(v)
	case isa.MOMLDQ:
		ea = m.reg(in.Src[0]) + uint64(in.Imm)
		stride = int64(m.reg(in.Src[1]))
		for k := 0; k < m.VL; k++ {
			m.V[in.Dst.Idx][k] = m.Mem.Load64(ea + uint64(int64(k)*stride))
		}
	case isa.MOMSTQ:
		ea = m.reg(in.Src[1]) + uint64(in.Imm)
		stride = int64(m.reg(in.Src[2]))
		for k := 0; k < m.VL; k++ {
			m.Mem.Store64(ea+uint64(int64(k)*stride), m.V[in.Src[0].Idx][k])
		}
	case isa.MOMSPLAT:
		for k := 0; k < isa.MaxVL; k++ {
			m.V[in.Dst.Idx][k] = m.M[in.Src[0].Idx]
		}
	case isa.MOMEXT:
		m.setMedia(in.Dst, m.V[in.Src[0].Idx][in.Imm&15])
	case isa.MOMINS:
		m.V[in.Dst.Idx][in.Imm&15] = m.M[in.Src[0].Idx]
	case isa.MOMMPVH:
		a := m.acc(in.Dst)
		coefs := m.M[in.Src[1].Idx]
		for k := 0; k < m.VL; k++ {
			c := int64(int16(simd.GetH(coefs, k%4)))
			a.MPVH(m.V[in.Src[0].Idx][k], c)
		}
	case isa.MOMTRANSH:
		src := &m.V[in.Src[0].Idx]
		var dst [isa.MaxVL]uint64
		for r := 0; r < 8; r++ {
			for c := 0; c < 8; c++ {
				// element (r,c) of the result = element (c,r) of the source
				v := simd.GetH(src[2*c+r/4], r%4)
				w := &dst[2*r+c/4]
				*w = simd.SetH(*w, c%4, v)
			}
		}
		m.V[in.Dst.Idx] = dst
	case isa.MOMRSUMW:
		var s0, s1 uint32
		for k := 0; k < m.VL; k++ {
			w := m.V[in.Src[0].Idx][k]
			s0 += simd.GetW(w, 0)
			s1 += simd.GetW(w, 1)
		}
		m.setMedia(in.Dst, uint64(s0)|uint64(s1)<<32)
	case isa.MOMRMAXH:
		res := m.V[in.Src[0].Idx][0]
		for k := 1; k < m.VL; k++ {
			res = simd.MaxSH(res, m.V[in.Src[0].Idx][k])
		}
		if m.VL == 0 {
			res = 0
		}
		m.setMedia(in.Dst, res)

	default:
		if !m.execPacked(in) {
			m.Err = fmt.Errorf("%s: pc=%d unknown opcode %d", m.Prog.Name, m.PC, in.Op)
			return 0, 0, false, false
		}
	}

	m.PC = next
	m.Steps++
	return ea, stride, taken, true
}

// Run executes until completion or maxSteps, returning the dynamic
// instruction count.
func (m *Machine) Run(maxSteps uint64) (uint64, error) {
	n := m.Record(maxSteps, nil)
	if !m.Done() {
		return n, fmt.Errorf("%s: exceeded %d steps", m.Prog.Name, maxSteps)
	}
	return n, m.Err
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mul64(a, b uint64) (hi, lo uint64) { return bits.Mul64(a, b) }

func f64bits(f float64) uint64     { return math.Float64bits(f) }
func f64frombits(b uint64) float64 { return math.Float64frombits(b) }
