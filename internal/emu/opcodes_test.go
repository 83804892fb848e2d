package emu_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/simd"
)

// runALU executes "dst = op(a, b)" on fresh state and returns the integer
// destination value.
func runALU(t *testing.T, op isa.Opcode, a, b uint64) uint64 {
	t.Helper()
	bld := asm.New("alu")
	bld.MovI(isa.R(1), int64(a))
	bld.MovI(isa.R(2), int64(b))
	bld.Op(op, isa.R(3), isa.R(1), isa.R(2))
	m := emu.New(bld.Build())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	return m.R[3]
}

func TestScalarALUOps(t *testing.T) {
	cases := []struct {
		op   isa.Opcode
		a, b uint64
		want uint64
	}{
		{isa.ADDQ, 5, 7, 12},
		{isa.SUBQ, 5, 7, ^uint64(1)},                          // -2
		{isa.MULQ, uint64(0xffffffffffffffff), 3, ^uint64(2)}, // -1*3
		{isa.AND, 0xf0f0, 0xff00, 0xf000},
		{isa.OR, 0xf0f0, 0x0f0f, 0xffff},
		{isa.XOR, 0xff, 0x0f, 0xf0},
		{isa.BIC, 0xff, 0x0f, 0xf0},
		{isa.SLL, 1, 12, 1 << 12},
		{isa.SRL, 1 << 12, 12, 1},
		{isa.SRA, 0xf000000000000000, 2, 0xfc00000000000000},
		{isa.CMPEQ, 4, 4, 1},
		{isa.CMPEQ, 4, 5, 0},
		{isa.CMPLT, ^uint64(0), 0, 1}, // -1 < 0 signed
		{isa.CMPULT, ^uint64(0), 0, 0},
		{isa.CMPLE, 3, 3, 1},
		{isa.CMPULE, 3, 2, 0},
		{isa.UMULH, 1 << 63, 4, 2},
	}
	for _, c := range cases {
		if got := runALU(t, c.op, c.a, c.b); got != c.want {
			t.Errorf("%s(%#x, %#x) = %#x, want %#x", c.op.Info().Name, c.a, c.b, got, c.want)
		}
	}
}

func TestDivideByZeroFaults(t *testing.T) {
	b := asm.New("div0")
	b.MovI(isa.R(1), 10)
	b.MovI(isa.R(2), 0)
	b.Op(isa.DIVQ, isa.R(3), isa.R(1), isa.R(2))
	m := emu.New(b.Build())
	if _, err := m.Run(10); err == nil {
		t.Fatal("expected divide-by-zero error")
	}
}

func TestSignExtensions(t *testing.T) {
	b := asm.New("sext")
	b.MovI(isa.R(1), 0x1ff)
	b.Op(isa.SEXTB, isa.R(2), isa.R(1), isa.Reg{})
	b.MovI(isa.R(3), 0x18000)
	b.Op(isa.SEXTW, isa.R(4), isa.R(3), isa.Reg{})
	b.MovI(isa.R(5), 0x180000000)
	b.Op(isa.SEXTL, isa.R(6), isa.R(5), isa.Reg{})
	m := emu.New(b.Build())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if int64(m.R[2]) != -1 || int64(m.R[4]) != -32768 || int64(m.R[6]) != -(1<<31) {
		t.Errorf("sext results: %d %d %d", int64(m.R[2]), int64(m.R[4]), int64(m.R[6]))
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	b := asm.New("r31")
	b.MovI(isa.R(31), 42)
	b.Mov(isa.R(1), isa.R(31))
	m := emu.New(b.Build())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.R[1] != 0 {
		t.Errorf("R31 should stay zero, read %d", m.R[1])
	}
}

func TestLoadStoreWidths(t *testing.T) {
	b := asm.New("ldst")
	b.Alloc("buf", 32, 8)
	base := isa.R(1)
	v := isa.R(2)
	b.MovI(base, int64(b.Sym("buf")))
	b.MovI(v, -2) // 0xfffe...
	b.Stb(v, base, 0)
	b.Stw(v, base, 2)
	b.Emit(isa.Inst{Op: isa.STL, Src: [3]isa.Reg{v, base}, Imm: 4})
	b.Stq(v, base, 8)
	b.Ldbu(isa.R(10), base, 0)
	b.Ldwu(isa.R(11), base, 2)
	b.Ldl(isa.R(12), base, 4)
	b.Ldq(isa.R(13), base, 8)
	m := emu.New(b.Build())
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if m.R[10] != 0xfe || m.R[11] != 0xfffe {
		t.Errorf("unsigned loads: %#x %#x", m.R[10], m.R[11])
	}
	if int64(m.R[12]) != -2 {
		t.Errorf("LDL must sign-extend: %d", int64(m.R[12]))
	}
	if int64(m.R[13]) != -2 {
		t.Errorf("LDQ: %d", int64(m.R[13]))
	}
}

func TestFPOps(t *testing.T) {
	b := asm.New("fp")
	b.MovI(isa.R(1), 7)
	b.Op(isa.CVTQT, isa.F(0), isa.R(1), isa.Reg{})
	b.MovI(isa.R(2), 2)
	b.Op(isa.CVTQT, isa.F(1), isa.R(2), isa.Reg{})
	b.Op(isa.ADDT, isa.F(2), isa.F(0), isa.F(1))
	b.Op(isa.MULT, isa.F(3), isa.F(0), isa.F(1))
	b.Op(isa.SUBT, isa.F(4), isa.F(0), isa.F(1))
	b.Op(isa.DIVT, isa.F(5), isa.F(0), isa.F(1))
	b.Op(isa.CVTTQ, isa.R(3), isa.F(5), isa.Reg{})
	m := emu.New(b.Build())
	if _, err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if m.F[2] != 9 || m.F[3] != 14 || m.F[4] != 5 {
		t.Errorf("fp arith: %v %v %v", m.F[2], m.F[3], m.F[4])
	}
	if m.R[3] != 3 { // trunc(3.5)
		t.Errorf("cvttq: %d", m.R[3])
	}
}

// TestEveryPackedOpcodeMatchesSimd drives each packed opcode through the
// emulator and compares against the simd package applied directly.
func TestEveryPackedOpcodeMatchesSimd(t *testing.T) {
	a := uint64(0x80ff7f0012345678)
	c := uint64(0x7f80e001ffff0001)
	type tc struct {
		op   isa.Opcode
		want uint64
		imm  int64
	}
	cases := []tc{
		{isa.PADDB, simd.AddB(a, c), 0},
		{isa.PADDH, simd.AddH(a, c), 0},
		{isa.PADDW, simd.AddW(a, c), 0},
		{isa.PADDSB, simd.AddSB(a, c), 0},
		{isa.PADDSH, simd.AddSH(a, c), 0},
		{isa.PADDUSB, simd.AddUSB(a, c), 0},
		{isa.PADDUSH, simd.AddUSH(a, c), 0},
		{isa.PSUBB, simd.SubB(a, c), 0},
		{isa.PSUBH, simd.SubH(a, c), 0},
		{isa.PSUBW, simd.SubW(a, c), 0},
		{isa.PSUBSB, simd.SubSB(a, c), 0},
		{isa.PSUBSH, simd.SubSH(a, c), 0},
		{isa.PSUBUSB, simd.SubUSB(a, c), 0},
		{isa.PSUBUSH, simd.SubUSH(a, c), 0},
		{isa.PMULLH, simd.MulLH(a, c), 0},
		{isa.PMULHH, simd.MulHH(a, c), 0},
		{isa.PMULHUH, simd.MulHUH(a, c), 0},
		{isa.PMADDH, simd.MAddH(a, c), 0},
		{isa.PAVGB, simd.AvgB(a, c), 0},
		{isa.PAVGH, simd.AvgH(a, c), 0},
		{isa.PABSDB, simd.AbsDB(a, c), 0},
		{isa.PABSDH, simd.AbsDH(a, c), 0},
		{isa.PSADBW, simd.SADBW(a, c), 0},
		{isa.PMINUB, simd.MinUB(a, c), 0},
		{isa.PMAXUB, simd.MaxUB(a, c), 0},
		{isa.PMINSH, simd.MinSH(a, c), 0},
		{isa.PMAXSH, simd.MaxSH(a, c), 0},
		{isa.PCMPEQB, simd.CmpEqB(a, c), 0},
		{isa.PCMPEQH, simd.CmpEqH(a, c), 0},
		{isa.PCMPGTB, simd.CmpGtB(a, c), 0},
		{isa.PCMPGTH, simd.CmpGtH(a, c), 0},
		{isa.PCMPGTUB, simd.CmpGtUB(a, c), 0},
		{isa.PAND, a & c, 0},
		{isa.POR, a | c, 0},
		{isa.PXOR, a ^ c, 0},
		{isa.PANDN, a &^ c, 0},
		{isa.PACKSSHB, simd.PackSSHB(a, c), 0},
		{isa.PACKUSHB, simd.PackUSHB(a, c), 0},
		{isa.PACKSSWH, simd.PackSSWH(a, c), 0},
		{isa.PUNPKLB, simd.UnpackLB(a, c), 0},
		{isa.PUNPKHB, simd.UnpackHB(a, c), 0},
		{isa.PUNPKLH, simd.UnpackLH(a, c), 0},
		{isa.PUNPKHH, simd.UnpackHH(a, c), 0},
		{isa.PUNPKLW, simd.UnpackLW(a, c), 0},
		{isa.PUNPKHW, simd.UnpackHW(a, c), 0},
		{isa.PMOV, a, 0},
	}
	shiftCases := []tc{
		{isa.PSLLH, simd.SllH(a, 3), 3},
		{isa.PSLLW, simd.SllW(a, 3), 3},
		{isa.PSLLQ, a << 3, 3},
		{isa.PSRLH, simd.SrlH(a, 3), 3},
		{isa.PSRLW, simd.SrlW(a, 3), 3},
		{isa.PSRLQ, a >> 3, 3},
		{isa.PSRAH, simd.SraH(a, 3), 3},
		{isa.PSRAW, simd.SraW(a, 3), 3},
	}

	run := func(op isa.Opcode, imm int64, vec bool) uint64 {
		b := asm.New("pk")
		b.AllocQ("in", []uint64{a, c}, 8)
		base := isa.R(1)
		b.MovI(base, int64(b.Sym("in")))
		if !vec {
			b.Ldm(isa.M(0), base, 0)
			b.Ldm(isa.M(1), base, 8)
			if imm != 0 {
				b.OpI(op, isa.M(2), isa.M(0), imm)
			} else {
				b.Op(op, isa.M(2), isa.M(0), isa.M(1))
			}
			b.Op(isa.MFM, isa.R(2), isa.M(2), isa.Reg{})
		} else {
			stride := isa.R(3)
			b.MovI(stride, 0) // every row identical
			b.SetVLI(4)
			b.MomLd(isa.V(0), base, stride, 0)
			b.MomLd(isa.V(1), base, stride, 8)
			vop := op.Vector()
			if imm != 0 {
				b.OpI(vop, isa.V(2), isa.V(0), imm)
			} else {
				b.Op(vop, isa.V(2), isa.V(0), isa.V(1))
			}
			b.OpI(isa.MOMEXT, isa.M(2), isa.V(2), 2)
			b.Op(isa.MFM, isa.R(2), isa.M(2), isa.Reg{})
		}
		m := emu.New(b.Build())
		if _, err := m.Run(30); err != nil {
			t.Fatal(err)
		}
		return m.R[2]
	}

	for _, cse := range append(cases, shiftCases...) {
		if got := run(cse.op, cse.imm, false); got != cse.want {
			t.Errorf("packed %s = %#x, want %#x", cse.op.Info().Name, got, cse.want)
		}
		if got := run(cse.op, cse.imm, true); got != cse.want {
			t.Errorf("vector %s = %#x, want %#x", cse.op.Info().Name, got, cse.want)
		}
	}
}

func TestAccumulatorOpcodes(t *testing.T) {
	a := uint64(0x0102030405060708)
	c := uint64(0x1020304050607080)
	b := asm.New("acc")
	b.AllocQ("in", []uint64{a, c}, 8)
	base := isa.R(1)
	b.MovI(base, int64(b.Sym("in")))
	b.Ldm(isa.M(0), base, 0)
	b.Ldm(isa.M(1), base, 8)
	b.Op(isa.ACLR, isa.A(0), isa.Reg{}, isa.Reg{})
	b.Op(isa.ACCABDB, isa.A(0), isa.M(0), isa.M(1))
	b.Op(isa.ACCABDB, isa.A(0), isa.M(0), isa.M(1))
	b.OpI(isa.RACSUM, isa.R(2), isa.A(0), 0)
	b.Op(isa.ACLR, isa.A(1), isa.Reg{}, isa.Reg{})
	b.Op(isa.ACCMULH, isa.A(1), isa.M(0), isa.M(1))
	b.OpI(isa.RACSUM, isa.R(3), isa.A(1), 1)
	b.OpI(isa.RACH, isa.M(5), isa.A(1), 0)
	b.Op(isa.MFM, isa.R(4), isa.M(5), isa.Reg{})
	m := emu.New(b.Build())
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	var acc simd.Acc
	acc.AbsDB(a, c)
	acc.AbsDB(a, c)
	if int64(m.R[2]) != acc.SumB() {
		t.Errorf("ACCABDB sum: %d want %d", int64(m.R[2]), acc.SumB())
	}
	var acc2 simd.Acc
	acc2.MulH(a, c)
	if int64(m.R[3]) != acc2.SumH() {
		t.Errorf("ACCMULH sum: %d want %d", int64(m.R[3]), acc2.SumH())
	}
	if m.R[4] != acc2.ReadH(0) {
		t.Errorf("RACH: %#x want %#x", m.R[4], acc2.ReadH(0))
	}
}

func TestMomTranspose(t *testing.T) {
	// Fill an 8x8 halfword matrix with value r*8+c, transpose, check.
	b := asm.New("trans")
	vals := make([]uint64, 16)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			w := 2*r + c/4
			vals[w] |= uint64(uint16(r*8+c)) << (16 * uint(c%4))
		}
	}
	b.AllocQ("in", vals, 8)
	b.Alloc("out", 128, 8)
	base, stride, outp := isa.R(1), isa.R(2), isa.R(3)
	b.MovI(base, int64(b.Sym("in")))
	b.MovI(outp, int64(b.Sym("out")))
	b.MovI(stride, 8)
	b.SetVLI(16)
	b.MomLd(isa.V(0), base, stride, 0)
	b.Op(isa.MOMTRANSH, isa.V(1), isa.V(0), isa.Reg{})
	b.MomSt(isa.V(1), outp, stride, 0)
	m := emu.New(b.Build())
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	out := m.Mem.Bytes(m.Prog.Sym("out"), 128)
	for r := 0; r < 8; r++ {
		for c := 0; c < 8; c++ {
			got := uint16(out[2*(r*8+c)]) | uint16(out[2*(r*8+c)+1])<<8
			want := uint16(c*8 + r)
			if got != want {
				t.Fatalf("transposed (%d,%d) = %d, want %d", r, c, got, want)
			}
		}
	}
}

func TestMomReductions(t *testing.T) {
	b := asm.New("red")
	vals := []uint64{}
	for k := 0; k < 16; k++ {
		vals = append(vals, uint64(uint32(k+1))|uint64(uint32(100+k))<<32)
	}
	b.AllocQ("in", vals, 8)
	base, stride := isa.R(1), isa.R(2)
	b.MovI(base, int64(b.Sym("in")))
	b.MovI(stride, 8)
	b.SetVLI(16)
	b.MomLd(isa.V(0), base, stride, 0)
	b.Op(isa.MOMRSUMW, isa.M(0), isa.V(0), isa.Reg{})
	b.Op(isa.MOMRMAXH, isa.M(1), isa.V(0), isa.Reg{})
	b.Op(isa.MFM, isa.R(3), isa.M(0), isa.Reg{})
	b.Op(isa.MFM, isa.R(4), isa.M(1), isa.Reg{})
	m := emu.New(b.Build())
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	sumLo := uint32(0)
	sumHi := uint32(0)
	for k := 0; k < 16; k++ {
		sumLo += uint32(k + 1)
		sumHi += uint32(100 + k)
	}
	if uint32(m.R[3]) != sumLo || uint32(m.R[3]>>32) != sumHi {
		t.Errorf("MOMRSUMW = %#x, want lo=%d hi=%d", m.R[3], sumLo, sumHi)
	}
	// Max across words of halfword lane 0 is 16 (k+1 max).
	if uint16(m.R[4]) != 16 {
		t.Errorf("MOMRMAXH lane0 = %d, want 16", uint16(m.R[4]))
	}
}

func TestMomSplatExtInsert(t *testing.T) {
	b := asm.New("splat")
	b.MovI(isa.R(1), 0x1234)
	b.Op(isa.MTM, isa.M(0), isa.R(1), isa.Reg{})
	b.Op(isa.MOMSPLAT, isa.V(0), isa.M(0), isa.Reg{})
	b.OpI(isa.MOMEXT, isa.M(1), isa.V(0), 9)
	b.MovI(isa.R(2), 0x5678)
	b.Op(isa.MTM, isa.M(2), isa.R(2), isa.Reg{})
	b.OpI(isa.MOMINS, isa.V(0), isa.M(2), 9)
	b.OpI(isa.MOMEXT, isa.M(3), isa.V(0), 9)
	b.OpI(isa.MOMEXT, isa.M(4), isa.V(0), 8)
	b.Op(isa.MFM, isa.R(3), isa.M(1), isa.Reg{})
	b.Op(isa.MFM, isa.R(4), isa.M(3), isa.Reg{})
	b.Op(isa.MFM, isa.R(5), isa.M(4), isa.Reg{})
	m := emu.New(b.Build())
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	if m.R[3] != 0x1234 || m.R[4] != 0x5678 || m.R[5] != 0x1234 {
		t.Errorf("splat/ext/ins: %#x %#x %#x", m.R[3], m.R[4], m.R[5])
	}
}

func TestPartialVLLeavesTailUntouched(t *testing.T) {
	b := asm.New("vl")
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = uint64(i + 1)
	}
	b.AllocQ("in", vals, 8)
	base, stride := isa.R(1), isa.R(2)
	b.MovI(base, int64(b.Sym("in")))
	b.MovI(stride, 8)
	b.SetVLI(16)
	b.MomLd(isa.V(0), base, stride, 0)
	b.SetVLI(4)
	b.Op(isa.PADDB.Vector(), isa.V(0), isa.V(0), isa.V(0)) // double first 4 words
	m := emu.New(b.Build())
	if _, err := m.Run(30); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 16; k++ {
		want := uint64(k + 1)
		if k < 4 {
			want *= 2
		}
		if m.V[0][k] != want {
			t.Errorf("word %d = %d, want %d", k, m.V[0][k], want)
		}
	}
}

func TestPCMOVSelect(t *testing.T) {
	b := asm.New("pcmov")
	b.AllocQ("in", []uint64{0xaaaaaaaaaaaaaaaa, 0x5555555555555555, 0x00ff00ff00ff00ff}, 8)
	base := isa.R(1)
	b.MovI(base, int64(b.Sym("in")))
	b.Ldm(isa.M(0), base, 0)
	b.Ldm(isa.M(1), base, 8)
	b.Ldm(isa.M(2), base, 16)
	b.Emit(isa.Inst{Op: isa.PCMOV, Dst: isa.M(3), Src: [3]isa.Reg{isa.M(0), isa.M(1), isa.M(2)}})
	b.Op(isa.MFM, isa.R(2), isa.M(3), isa.Reg{})
	m := emu.New(b.Build())
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	want := simd.Select(0xaaaaaaaaaaaaaaaa, 0x5555555555555555, 0x00ff00ff00ff00ff)
	if m.R[2] != want {
		t.Errorf("PCMOV = %#x, want %#x", m.R[2], want)
	}
}

func TestMOMMPVH(t *testing.T) {
	// Matrix-per-vector: va.lane48[l] += coef[k%4] * V[k].h[l] over VL rows.
	b := asm.New("mpv")
	rows := []uint64{
		simdPackH(1, 2, 3, 4),
		simdPackH(10, 20, 30, 40),
		simdPackH(100, 200, 300, 400),
	}
	b.AllocQ("rows", rows, 8)
	b.AllocQ("coef", []uint64{simdPackH(2, 3, 5, 0)}, 8)
	base, stride, cp := isa.R(1), isa.R(2), isa.R(3)
	b.MovI(base, int64(b.Sym("rows")))
	b.MovI(cp, int64(b.Sym("coef")))
	b.MovI(stride, 8)
	b.SetVLI(3)
	b.MomLd(isa.V(0), base, stride, 0)
	b.Ldm(isa.M(0), cp, 0)
	b.Op(isa.ACLR, isa.VA(0), isa.Reg{}, isa.Reg{})
	b.Op(isa.MOMMPVH, isa.VA(0), isa.V(0), isa.M(0))
	b.OpI(isa.RACSUM, isa.R(4), isa.VA(0), 1)
	m := emu.New(b.Build())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	// lane l sum = 2*row0[l] + 3*row1[l] + 5*row2[l]
	want := int64(0)
	coefs := []int64{2, 3, 5}
	vals := [][]int64{{1, 2, 3, 4}, {10, 20, 30, 40}, {100, 200, 300, 400}}
	for l := 0; l < 4; l++ {
		for k := 0; k < 3; k++ {
			want += coefs[k] * vals[k][l]
		}
	}
	if got := int64(m.R[4]); got != want {
		t.Errorf("MPVH total = %d, want %d", got, want)
	}
}

// simdPackH packs four halfword lanes, a in lane 0.
func simdPackH(a, b, c, d uint16) uint64 {
	return uint64(a) | uint64(b)<<16 | uint64(c)<<32 | uint64(d)<<48
}

func TestVectorAccumulateSerialisesAcrossWords(t *testing.T) {
	// A matrix accumulator op must accumulate every active word.
	b := asm.New("vacc")
	vals := make([]uint64, 16)
	for i := range vals {
		vals[i] = simd.SplatB(uint64(i + 1))
	}
	b.AllocQ("in", vals, 8)
	base, stride := isa.R(1), isa.R(2)
	b.MovI(base, int64(b.Sym("in")))
	b.MovI(stride, 8)
	b.SetVLI(16)
	b.MomLd(isa.V(0), base, stride, 0)
	b.Op(isa.ACLR, isa.VA(0), isa.Reg{}, isa.Reg{})
	b.Op(isa.ACCADDB.Vector(), isa.VA(0), isa.V(0), isa.Reg{})
	b.OpI(isa.RACSUM, isa.R(3), isa.VA(0), 0)
	m := emu.New(b.Build())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	// Each word contributes 8 lanes of (i+1): total = 8 * sum(1..16).
	if got := int64(m.R[3]); got != 8*136 {
		t.Errorf("vector accumulate total = %d, want %d", got, 8*136)
	}
}

func TestVLZeroVectorOpsAreNoOps(t *testing.T) {
	b := asm.New("vl0")
	b.Alloc("buf", 16*8, 8)
	base, stride, zero := isa.R(1), isa.R(2), isa.R(3)
	b.MovI(base, int64(b.Sym("buf")))
	b.MovI(stride, 8)
	b.SetVLI(16)
	b.MomLd(isa.V(0), base, stride, 0)
	b.MovI(zero, 0)
	b.SetVL(zero)
	b.Op(isa.PADDB.Vector(), isa.V(0), isa.V(0), isa.V(0)) // no lanes active
	b.MomSt(isa.V(0), base, stride, 0)                     // stores nothing
	b.MovI(isa.R(4), 1)
	m := emu.New(b.Build())
	if _, err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.R[4] != 1 {
		t.Error("program did not complete")
	}
	if m.VL != 0 {
		t.Errorf("VL = %d, want 0", m.VL)
	}
}
