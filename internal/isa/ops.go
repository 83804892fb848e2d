package isa

// Class buckets opcodes by the functional unit / pipeline resource they use.
type Class uint8

const (
	ClassNop Class = iota
	ClassIntSimple
	ClassIntComplex
	ClassFPSimple
	ClassFPComplex
	ClassMedSimple
	ClassMedComplex
	ClassLoad
	ClassStore
	ClassBranch
	ClassMomLoad
	ClassMomStore
	ClassMomSimple  // vector (matrix) packed op, simple pipe
	ClassMomComplex // vector packed op needing the complex (multiplier) pipe
	ClassCtl        // VL management etc.
)

func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntSimple:
		return "int"
	case ClassIntComplex:
		return "int*"
	case ClassFPSimple:
		return "fp"
	case ClassFPComplex:
		return "fp*"
	case ClassMedSimple:
		return "med"
	case ClassMedComplex:
		return "med*"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "br"
	case ClassMomLoad:
		return "vload"
	case ClassMomStore:
		return "vstore"
	case ClassMomSimple:
		return "vmed"
	case ClassMomComplex:
		return "vmed*"
	case ClassCtl:
		return "ctl"
	}
	return "?"
}

// IsMem reports whether the class accesses memory.
func (c Class) IsMem() bool {
	switch c {
	case ClassLoad, ClassStore, ClassMomLoad, ClassMomStore:
		return true
	}
	return false
}

// IsVector reports whether the class is a MOM vector class.
func (c Class) IsVector() bool {
	switch c {
	case ClassMomLoad, ClassMomStore, ClassMomSimple, ClassMomComplex:
		return true
	}
	return false
}

// Opcode identifies an operation. Packed (media) opcodes occupy a contiguous
// block; adding VectorDelta to a packed opcode yields its MOM matrix variant.
type Opcode uint16

// VectorDelta separates the packed opcode block from its MOM vector twins.
const VectorDelta Opcode = 512

const (
	NOP Opcode = iota

	// ---- Scalar integer ----
	LDA  // dst = src0 + imm
	ADDQ // dst = src0 + op2
	SUBQ
	MULQ
	DIVQ // signed divide (complex)
	UMULH
	AND
	OR
	XOR
	BIC // and-not
	SLL
	SRL
	SRA
	CMPEQ
	CMPLT // signed
	CMPLE
	CMPULT
	CMPULE
	CMOVEQ // dst = src1 if src0 == 0 (reads dst)
	CMOVNE
	CMOVLT
	CMOVGE
	SEXTB
	SEXTW
	SEXTL

	// ---- Scalar memory ----
	LDBU
	LDWU
	LDL // sign-extending 32-bit load
	LDQ
	STB
	STW
	STL
	STQ
	LDT // FP load
	STT // FP store

	// ---- Branches ----
	BR // unconditional
	BEQ
	BNE
	BLT
	BLE
	BGT
	BGE

	// ---- Scalar FP ----
	ADDT
	SUBT
	MULT
	DIVT
	CVTQT // int -> fp
	CVTTQ // fp -> int (truncate)

	// ---- Media register moves / loads ----
	LDQM  // media <- mem[src0+imm] (64-bit, unaligned permitted)
	STQM  // mem[src1+imm] <- media src0
	MTM   // media <- int
	MFM   // int <- media
	PZERO // media <- 0

	// ---- Packed block begin (everything in [packedFirst,packedLast] has a
	// MOM vector twin at +VectorDelta) ----

	PADDB // 8x8 wrap
	PADDH // 4x16 wrap
	PADDW // 2x32 wrap
	PADDSB
	PADDSH
	PADDUSB
	PADDUSH
	PSUBB
	PSUBH
	PSUBW
	PSUBSB
	PSUBSH
	PSUBUSB
	PSUBUSH
	PMULLH  // 4x16 -> low 16
	PMULHH  // 4x16 -> high 16 signed
	PMULHUH // 4x16 -> high 16 unsigned
	PMADDH  // pairs of 16x16 products summed -> 2x32
	PAVGB   // unsigned average with rounding
	PAVGH
	PABSDB // |a-b| unsigned per byte
	PABSDH
	PSADBW // sum over 8 bytes of |a-b| -> single 64-bit value
	PMINUB
	PMAXUB
	PMINSH
	PMAXSH
	PCMPEQB
	PCMPEQH
	PCMPGTB // signed compare, all-ones mask on true
	PCMPGTH
	PCMPGTUB // unsigned compare
	PAND
	POR
	PXOR
	PANDN // src0 &^ src1
	PSLLH // shift amount: op2 (register low 6 bits or immediate)
	PSLLW
	PSLLQ
	PSRLH
	PSRLW
	PSRLQ
	PSRAH
	PSRAW
	PACKSSHB // two 4x16 -> one 8x8 signed-saturate (src0 low, src1 high)
	PACKUSHB
	PACKSSWH
	PUNPKLB // interleave low 4 bytes of src0,src1
	PUNPKHB
	PUNPKLH // interleave low 2 halves
	PUNPKHH
	PUNPKLW
	PUNPKHW
	PSPLATB // broadcast low byte of int src0 to all 8 byte lanes
	PSPLATH // broadcast low half of int src0 to all 4 half lanes
	PCMOV   // per-bit select: dst = (src0 & src2) | (src1 &^ src2)
	PMOV    // dst = src0 (media move)

	// ---- Accumulator (MDMX-style) ops; also inside the packed block so the
	// MOM matrix accumulator variants come for free at +VectorDelta ----

	ACLR    // acc <- 0
	ACCADDB // acc8x24 += unsigned bytes of src0
	ACCADDH // acc4x48 += signed halves of src0
	ACCSUBB
	ACCSUBH
	ACCMULB // acc8x24 += sbyte(src0)*sbyte(src1)
	ACCMULH // acc4x48 += s16(src0)*s16(src1)
	ACCMACH // acc2x(2x48?) -- reserved; see note in emulator
	ACCABDB // acc8x24 += |a-b| unsigned bytes
	ACCABDH
	ACCSQDB // acc8x24 += (a-b)^2 (unsigned bytes, signed diff)
	ACCSQDH // acc4x48 += (a-b)^2 (signed halves)

	// packed block end marker (exclusive)
	packedEnd

	// ---- Accumulator readback / reduction (shared by MDMX and MOM) ----
	RACH   // media <- sat16(acc4x48 >> imm) packed
	RACB   // media <- satu8(acc8x24 >> imm) packed
	RACSUM // int <- sum of all acc lanes (enhanced reduction op)
	WACH   // acc4x48 <- sign-extended halves of media src0 (restore)
	WACB   // acc8x24 <- zero-extended bytes of media src0

	// ---- MOM-specific ----
	SETVL     // VL <- min(max(src0,0), 16); also writes dst int reg with VL
	SETVLI    // VL <- imm
	MOMLDQ    // V <- VL words from mem[src0 + imm + k*src1]
	MOMSTQ    // VL words of src0 V -> mem[src1 + imm + k*src2]
	MOMSPLAT  // all MaxVL words of dst V <- media src0
	MOMEXT    // media <- word Imm of V src0
	MOMINS    // word Imm of dst V <- media src0 (reads dst)
	MOMMPVH   // va4x48[l] += sum_k s16(Vsrc0[k].h[l]) * s16(Msrc1.h[k%4])
	MOMTRANSH // dst V <- 8x8 16-bit transpose of src0 V (rows = word pairs)
	MOMRSUMW  // media <- per-lane-32 sum across VL words of src0 V
	MOMRMAXH  // media <- per-lane-16 signed max across VL words of src0 V

	numScalarOps = iota
)

// packedFirst is the first opcode that has a vector twin.
const packedFirst = PADDB

// Vector returns the MOM matrix variant of a packed opcode.
// It panics if op has no vector form.
func (op Opcode) Vector() Opcode {
	if op < packedFirst || op >= packedEnd {
		panic("isa: opcode " + op.Info().Name + " has no vector form")
	}
	return op + VectorDelta
}

// Scalar returns the packed (single-word) opcode underlying a vector opcode.
func (op Opcode) Scalar() Opcode {
	if op.IsVectorPacked() {
		return op - VectorDelta
	}
	return op
}

// IsVectorPacked reports whether op is a derived MOM vector opcode.
func (op Opcode) IsVectorPacked() bool {
	return op >= packedFirst+VectorDelta && op < packedEnd+VectorDelta
}

// Info describes static properties of an opcode.
type Info struct {
	Name  string
	Class Class
	Lat   int // execution latency in cycles (memory ops: address-gen latency)
}

// infoTab holds every registered opcode's Info, indexed by opcode: the
// scalar and packed opcodes, then the vector twins at +VectorDelta. An
// unregistered opcode's entry has an empty name.
var infoTab [packedEnd + VectorDelta]Info

func reg(op Opcode, name string, c Class, lat int) {
	infoTab[op] = Info{name, c, lat}
}

// Latency constants, loosely following an R10000-era design.
const (
	latSimple  = 1
	latMul     = 3
	latDiv     = 20
	latFPAdd   = 3
	latFPMul   = 3
	latFPDiv   = 18
	latMedSimp = 1
	latMedMul  = 3
	latMedSAD  = 2
)

func init() {
	reg(NOP, "nop", ClassNop, 1)

	ints := func(op Opcode, n string) { reg(op, n, ClassIntSimple, latSimple) }
	ints(LDA, "lda")
	ints(ADDQ, "addq")
	ints(SUBQ, "subq")
	reg(MULQ, "mulq", ClassIntComplex, latMul)
	reg(DIVQ, "divq", ClassIntComplex, latDiv)
	reg(UMULH, "umulh", ClassIntComplex, latMul)
	ints(AND, "and")
	ints(OR, "or")
	ints(XOR, "xor")
	ints(BIC, "bic")
	ints(SLL, "sll")
	ints(SRL, "srl")
	ints(SRA, "sra")
	ints(CMPEQ, "cmpeq")
	ints(CMPLT, "cmplt")
	ints(CMPLE, "cmple")
	ints(CMPULT, "cmpult")
	ints(CMPULE, "cmpule")
	ints(CMOVEQ, "cmoveq")
	ints(CMOVNE, "cmovne")
	ints(CMOVLT, "cmovlt")
	ints(CMOVGE, "cmovge")
	ints(SEXTB, "sextb")
	ints(SEXTW, "sextw")
	ints(SEXTL, "sextl")

	reg(LDBU, "ldbu", ClassLoad, 1)
	reg(LDWU, "ldwu", ClassLoad, 1)
	reg(LDL, "ldl", ClassLoad, 1)
	reg(LDQ, "ldq", ClassLoad, 1)
	reg(STB, "stb", ClassStore, 1)
	reg(STW, "stw", ClassStore, 1)
	reg(STL, "stl", ClassStore, 1)
	reg(STQ, "stq", ClassStore, 1)
	reg(LDT, "ldt", ClassLoad, 1)
	reg(STT, "stt", ClassStore, 1)

	reg(BR, "br", ClassBranch, 1)
	reg(BEQ, "beq", ClassBranch, 1)
	reg(BNE, "bne", ClassBranch, 1)
	reg(BLT, "blt", ClassBranch, 1)
	reg(BLE, "ble", ClassBranch, 1)
	reg(BGT, "bgt", ClassBranch, 1)
	reg(BGE, "bge", ClassBranch, 1)

	reg(ADDT, "addt", ClassFPSimple, latFPAdd)
	reg(SUBT, "subt", ClassFPSimple, latFPAdd)
	reg(MULT, "mult", ClassFPComplex, latFPMul)
	reg(DIVT, "divt", ClassFPComplex, latFPDiv)
	reg(CVTQT, "cvtqt", ClassFPSimple, latFPAdd)
	reg(CVTTQ, "cvttq", ClassFPSimple, latFPAdd)

	reg(LDQM, "ldqm", ClassLoad, 1)
	reg(STQM, "stqm", ClassStore, 1)
	reg(MTM, "mtm", ClassMedSimple, latMedSimp)
	reg(MFM, "mfm", ClassMedSimple, latMedSimp)
	reg(PZERO, "pzero", ClassMedSimple, latMedSimp)

	med := func(op Opcode, n string) { reg(op, n, ClassMedSimple, latMedSimp) }
	medc := func(op Opcode, n string, lat int) { reg(op, n, ClassMedComplex, lat) }
	med(PADDB, "paddb")
	med(PADDH, "paddh")
	med(PADDW, "paddw")
	med(PADDSB, "paddsb")
	med(PADDSH, "paddsh")
	med(PADDUSB, "paddusb")
	med(PADDUSH, "paddush")
	med(PSUBB, "psubb")
	med(PSUBH, "psubh")
	med(PSUBW, "psubw")
	med(PSUBSB, "psubsb")
	med(PSUBSH, "psubsh")
	med(PSUBUSB, "psubusb")
	med(PSUBUSH, "psubush")
	medc(PMULLH, "pmullh", latMedMul)
	medc(PMULHH, "pmulhh", latMedMul)
	medc(PMULHUH, "pmulhuh", latMedMul)
	medc(PMADDH, "pmaddh", latMedMul)
	med(PAVGB, "pavgb")
	med(PAVGH, "pavgh")
	med(PABSDB, "pabsdb")
	med(PABSDH, "pabsdh")
	medc(PSADBW, "psadbw", latMedSAD)
	med(PMINUB, "pminub")
	med(PMAXUB, "pmaxub")
	med(PMINSH, "pminsh")
	med(PMAXSH, "pmaxsh")
	med(PCMPEQB, "pcmpeqb")
	med(PCMPEQH, "pcmpeqh")
	med(PCMPGTB, "pcmpgtb")
	med(PCMPGTH, "pcmpgth")
	med(PCMPGTUB, "pcmpgtub")
	med(PAND, "pand")
	med(POR, "por")
	med(PXOR, "pxor")
	med(PANDN, "pandn")
	med(PSLLH, "psllh")
	med(PSLLW, "psllw")
	med(PSLLQ, "psllq")
	med(PSRLH, "psrlh")
	med(PSRLW, "psrlw")
	med(PSRLQ, "psrlq")
	med(PSRAH, "psrah")
	med(PSRAW, "psraw")
	med(PACKSSHB, "packsshb")
	med(PACKUSHB, "packushb")
	med(PACKSSWH, "packsswh")
	med(PUNPKLB, "punpklb")
	med(PUNPKHB, "punpkhb")
	med(PUNPKLH, "punpklh")
	med(PUNPKHH, "punpkhh")
	med(PUNPKLW, "punpklw")
	med(PUNPKHW, "punpkhw")
	med(PSPLATB, "psplatb")
	med(PSPLATH, "psplath")
	med(PCMOV, "pcmov")
	med(PMOV, "pmov")

	med(ACLR, "aclr")
	med(ACCADDB, "accaddb")
	med(ACCADDH, "accaddh")
	med(ACCSUBB, "accsubb")
	med(ACCSUBH, "accsubh")
	medc(ACCMULB, "accmulb", latMedMul)
	medc(ACCMULH, "accmulh", latMedMul)
	medc(ACCMACH, "accmach", latMedMul)
	medc(ACCABDB, "accabdb", latMedSAD)
	medc(ACCABDH, "accabdh", latMedSAD)
	medc(ACCSQDB, "accsqdb", latMedMul)
	medc(ACCSQDH, "accsqdh", latMedMul)

	med(RACH, "rach")
	med(RACB, "racb")
	medc(RACSUM, "racsum", latMedSAD)
	med(WACH, "wach")
	med(WACB, "wacb")

	reg(SETVL, "setvl", ClassCtl, 1)
	reg(SETVLI, "setvli", ClassCtl, 1)
	reg(MOMLDQ, "momldq", ClassMomLoad, 1)
	reg(MOMSTQ, "momstq", ClassMomStore, 1)
	reg(MOMSPLAT, "momsplat", ClassMomSimple, latMedSimp)
	reg(MOMEXT, "momext", ClassMedSimple, latMedSimp)
	reg(MOMINS, "momins", ClassMomSimple, latMedSimp)
	reg(MOMMPVH, "mommpvh", ClassMomComplex, latMedMul)
	reg(MOMTRANSH, "momtransh", ClassMomSimple, 2)
	reg(MOMRSUMW, "momrsumw", ClassMomComplex, latMedSAD)
	reg(MOMRMAXH, "momrmaxh", ClassMomComplex, latMedSAD)

	// Derive the MOM vector twins of every packed opcode.
	for op := packedFirst; op < packedEnd; op++ {
		in := infoTab[op]
		cls := ClassMomSimple
		if in.Class == ClassMedComplex {
			cls = ClassMomComplex
		}
		infoTab[op+VectorDelta] = Info{"v" + in.Name, cls, in.Lat}
	}
}

// Info returns the static description of op.
func (op Opcode) Info() Info {
	if op.Known() {
		return infoTab[op]
	}
	return Info{Name: "op?", Class: ClassNop, Lat: 1}
}

// ElemSize returns the element size in bytes a memory opcode accesses.
func (op Opcode) ElemSize() int {
	switch op {
	case LDBU, STB:
		return 1
	case LDWU, STW:
		return 2
	case LDL, STL:
		return 4
	}
	return 8 // LDQ/STQ, LDT/STT, LDQM/STQM, MOMLDQ/MOMSTQ
}

// Known reports whether op is a registered opcode.
func (op Opcode) Known() bool {
	return int(op) < len(infoTab) && infoTab[op].Name != ""
}

// AllOpcodes returns every registered opcode in ascending order (useful
// for exhaustive tests).
func AllOpcodes() []Opcode {
	var ops []Opcode
	for op := range Opcode(len(infoTab)) {
		if op.Known() {
			ops = append(ops, op)
		}
	}
	return ops
}

// CountByExtension returns the number of opcodes available to each ISA
// level, mirroring the paper's instruction counts (MMX ~67, MDMX ~88,
// MOM ~121). Scalar/branch/FP opcodes are excluded (they belong to the
// Alpha base).
func CountByExtension() (mmx, mdmx, mom int) {
	for _, op := range AllOpcodes() {
		switch infoTab[op].Class {
		case ClassMedSimple, ClassMedComplex:
			if op >= ACLR && op <= ACCSQDH || op >= RACH && op <= WACB {
				mdmx++ // accumulator ops: MDMX and MOM only
				mom++
			} else if op == MOMEXT {
				mom++
			} else {
				mmx++
				mdmx++
				mom++
			}
		case ClassMomSimple, ClassMomComplex, ClassMomLoad, ClassMomStore, ClassCtl:
			mom++
		case ClassLoad, ClassStore:
			if op == LDQM || op == STQM {
				mmx++
				mdmx++
				mom++
			}
		}
	}
	return
}
