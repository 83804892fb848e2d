package emu_test

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
)

// buildSum builds a program that sums bytes 0..n-1 of a buffer into a
// 64-bit result stored at symbol "out".
func buildSum(n int, vals []byte) *isa.Program {
	b := asm.New("sum")
	b.AllocBytes("in", vals, 8)
	b.Alloc("out", 8, 8)
	ptr, acc, tmp, ctr := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	outp := isa.R(5)
	b.MovI(ptr, int64(b.Sym("in")))
	b.MovI(outp, int64(b.Sym("out")))
	b.MovI(acc, 0)
	b.Loop(ctr, int64(n), func() {
		b.Ldbu(tmp, ptr, 0)
		b.Add(acc, acc, tmp)
		b.AddI(ptr, ptr, 1)
	})
	b.Stq(acc, outp, 0)
	return b.Build()
}

func TestScalarSumProgram(t *testing.T) {
	vals := make([]byte, 100)
	want := uint64(0)
	for i := range vals {
		vals[i] = byte(i*7 + 3)
		want += uint64(vals[i])
	}
	p := buildSum(len(vals), vals)
	m := emu.New(p)
	steps, err := m.Run(1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if steps == 0 {
		t.Fatal("no steps executed")
	}
	got := m.Mem.Load64(p.Sym("out"))
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
}

func TestBranchesAndCmov(t *testing.T) {
	b := asm.New("absdiff")
	b.Alloc("out", 8, 8)
	x, y, d, nd, outp := isa.R(1), isa.R(2), isa.R(3), isa.R(4), isa.R(5)
	b.MovI(x, 10)
	b.MovI(y, 32)
	b.Sub(d, x, y) // -22
	b.MovI(nd, 0)
	b.Sub(nd, nd, d)           // 22
	b.Op(isa.CMOVLT, d, d, nd) // d<0 -> d=22
	b.MovI(outp, int64(b.Sym("out")))
	b.Stq(d, outp, 0)
	p := b.Build()
	m := emu.New(p)
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load64(p.Sym("out")); got != 22 {
		t.Fatalf("abs diff = %d, want 22", got)
	}
}

func TestMomStridedLoadStore(t *testing.T) {
	b := asm.New("momcopy")
	// 16 rows of 16 bytes; copy first 8 bytes of each row using one MOM
	// load/store pair with stride 16.
	src := make([]byte, 16*16)
	for i := range src {
		src[i] = byte(i ^ 0x5a)
	}
	b.AllocBytes("src", src, 8)
	b.Alloc("dst", 16*16, 8)
	base, stride, dbase := isa.R(1), isa.R(2), isa.R(3)
	b.MovI(base, int64(b.Sym("src")))
	b.MovI(dbase, int64(b.Sym("dst")))
	b.MovI(stride, 16)
	b.SetVLI(16)
	b.MomLd(isa.V(0), base, stride, 0)
	b.MomSt(isa.V(0), dbase, stride, 0)
	p := b.Build()
	m := emu.New(p)
	if _, err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 16; row++ {
		for col := 0; col < 8; col++ {
			got := m.Mem.Load8(p.Sym("dst") + uint64(row*16+col))
			want := src[row*16+col]
			if got != want {
				t.Fatalf("dst[%d][%d] = %#x, want %#x", row, col, got, want)
			}
		}
	}
}

func TestVLClamp(t *testing.T) {
	b := asm.New("vl")
	b.MovI(isa.R(1), 99)
	b.SetVL(isa.R(1))
	p := b.Build()
	m := emu.New(p)
	if _, err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.VL != isa.MaxVL {
		t.Fatalf("VL = %d, want %d", m.VL, isa.MaxVL)
	}
}

func TestMemoryFaultReported(t *testing.T) {
	b := asm.New("fault")
	b.MovI(isa.R(1), 1<<40)
	b.Ldq(isa.R(2), isa.R(1), 0)
	p := b.Build()
	m := emu.New(p)
	n, err := m.Run(10)
	const want = "fault: pc=1 ldq r2, r1, #0: memory fault: access of 8 bytes at 0x10000000000"
	if err == nil || err.Error() != want || n != 1 {
		t.Fatalf("Run: %d steps, %v; want 1 step, %q", n, err, want)
	}
}
