package kernels

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/media"
)

// The exported emitters are the building blocks of the applications; test
// each against the golden arithmetic on every ISA level.

func runProg(t *testing.T, p *isa.Program) *emu.Machine {
	t.Helper()
	m := emu.New(p)
	if _, err := m.Run(10_000_000); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEmitDiffAndAddBlockRoundTrip(t *testing.T) {
	w := 32
	for _, ext := range isa.AllExts {
		b := asm.New("diffadd")
		cur := media.GenFrame(w, 16, 0, 7)
		pred := media.GenFrame(w, 16, 1, 7)
		curA := b.AllocBytes("cur", cur.Pix, 8)
		predA := b.AllocBytes("pred", pred.Pix, 8)
		resA := b.Alloc("res", 128, 8)
		outA := b.Alloc("out", w*16, 8)
		EnsureClipTab(b)
		c, p, r, o := isa.R(8), isa.R(9), isa.R(10), isa.R(7)
		b.MovI(c, int64(curA))
		b.MovI(p, int64(predA))
		b.MovI(r, int64(resA))
		b.MovI(o, int64(outA))
		EmitDiffBlock8(b, ext, w, c, p, r)
		EmitAddBlock8(b, ext, w, p, r, o)
		m := runProg(t, b.Build())
		// pred + (cur - pred) must reconstruct cur exactly over the block.
		got := m.Mem.Bytes(outA, w*16)
		for j := 0; j < 8; j++ {
			for i := 0; i < 8; i++ {
				if got[j*w+i] != cur.Pix[j*w+i] {
					t.Fatalf("%v: (%d,%d) = %d, want %d", ext, i, j, got[j*w+i], cur.Pix[j*w+i])
				}
			}
		}
	}
}

func TestEmitCopyAndAvgBlock(t *testing.T) {
	w := 48
	for _, ext := range isa.AllExts {
		b := asm.New("copyavg")
		src1 := media.GenFrame(w, 16, 0, 9)
		src2 := media.GenFrame(w, 16, 1, 9)
		aA := b.AllocBytes("a", src1.Pix, 8)
		bA := b.AllocBytes("b", src2.Pix, 8)
		avA := b.Alloc("av", w*16, 8)
		ra, rb, rc := isa.R(8), isa.R(9), isa.R(10)
		b.MovI(ra, int64(aA))
		b.MovI(rb, int64(bA))
		b.MovI(rc, int64(avA))
		EmitAvgBlock16(b, ext, w, ra, rb, rc)
		m := runProg(t, b.Build())
		gotAv := m.Mem.Bytes(avA, w*16)
		for j := 0; j < 16; j++ {
			for i := 0; i < 16; i++ {
				want := byte((uint16(src1.Pix[j*w+i]) + uint16(src2.Pix[j*w+i]) + 1) >> 1)
				if gotAv[j*w+i] != want {
					t.Fatalf("%v avg (%d,%d) = %d want %d", ext, i, j, gotAv[j*w+i], want)
				}
			}
		}
	}
}

func TestEmitBlockSADMatchesGolden(t *testing.T) {
	w := 64
	cur := media.GenFrame(w, 32, 0, 11)
	ref := media.GenFrame(w, 32, 1, 11)
	want := media.SAD16(cur, 8, 4, ref, 11, 7)
	for _, ext := range isa.AllExts {
		b := asm.New("sad")
		curA := b.AllocBytes("cur", cur.Pix, 8)
		refA := b.AllocBytes("ref", ref.Pix, 8)
		outA := b.Alloc("out", 8, 8)
		rc, rr, rs, ro := isa.R(8), isa.R(9), isa.R(10), isa.R(7)
		b.MovI(rc, int64(curA)+int64(4*w+8))
		b.MovI(rr, int64(refA)+int64(7*w+11))
		EmitBlockSAD(b, ext, w, rc, rr, rs)
		b.MovI(ro, int64(outA))
		b.Stq(rs, ro, 0)
		m := runProg(t, b.Build())
		if got := int64(m.Mem.Load64(outA)); got != want {
			t.Errorf("%v: SAD = %d, want %d", ext, got, want)
		}
	}
}

func TestEmitFDCTIDCTBatchRoundTrip(t *testing.T) {
	// FDCT then IDCT of pixel-range blocks must round-trip within the
	// fixed-point tolerance, identically across ISAs.
	nb := 20 // deliberately not a multiple of 16 (exercises the MOM tail)
	rng := media.NewRNG(13)
	blocks := make([]int16, 64*nb)
	for i := range blocks {
		blocks[i] = int16(rng.Intn(256) - 128)
	}
	var ref []int16
	for _, ext := range isa.AllExts {
		b := asm.New("dct")
		b.AllocH("blocks", blocks, 8)
		b.Alloc("mid", 128*nb, 8)
		b.Alloc("out", 128*nb, 8)
		EnsureDCT(b)
		EmitFDCTBatch(b, ext, int64(b.Sym("blocks")), int64(b.Sym("mid")), nb)
		EmitIDCTBatch(b, ext, int64(b.Sym("mid")), int64(b.Sym("out")), nb)
		m := runProg(t, b.Build())
		got := readI16s(m, m.Prog.Sym("out"), 64*nb)
		if ref == nil {
			ref = got
			// Round-trip quality vs the original pixels.
			worst := 0
			for i := range got {
				d := int(got[i]) - int(blocks[i])
				if d < 0 {
					d = -d
				}
				if d > worst {
					worst = d
				}
			}
			if worst > 6 {
				t.Errorf("round-trip worst error %d > 6", worst)
			}
			continue
		}
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("%v: output %d differs across ISAs: %d vs %d", ext, i, got[i], ref[i])
			}
		}
	}
}

func TestEmitYCC2RGBMatchesGolden(t *testing.T) {
	n := 256 + 8 // exercises the MOM remainder path
	rng := media.NewRNG(17)
	y := make([]byte, n)
	cb := make([]byte, n)
	cr := make([]byte, n)
	for i := 0; i < n; i++ {
		y[i], cb[i], cr[i] = byte(rng.Next()), byte(rng.Next()), byte(rng.Next())
	}
	for _, ext := range isa.AllExts {
		b := asm.New("y2r")
		b.AllocBytes("y", y, 8)
		b.AllocBytes("cb", cb, 8)
		b.AllocBytes("cr", cr, 8)
		b.Alloc("r", n, 8)
		b.Alloc("g", n, 8)
		b.Alloc("b2", n, 8)
		EmitYCC2RGB(b, ext, n, "y", "cb", "cr", "r", "g", "b2")
		m := runProg(t, b.Build())
		gr := m.Mem.Bytes(m.Prog.Sym("r"), n)
		gg := m.Mem.Bytes(m.Prog.Sym("g"), n)
		gb := m.Mem.Bytes(m.Prog.Sym("b2"), n)
		for i := 0; i < n; i++ {
			wr, wg, wb := media.YCC2RGB(y[i], cb[i], cr[i])
			if gr[i] != wr || gg[i] != wg || gb[i] != wb {
				t.Fatalf("%v: pixel %d = (%d,%d,%d), want (%d,%d,%d)",
					ext, i, gr[i], gg[i], gb[i], wr, wg, wb)
			}
		}
	}
}

func TestTranspose4x4hEmitter(t *testing.T) {
	// The packed 4x4 transpose network against a directly-computed matrix.
	b := asm.New("t4")
	var words []uint64
	for r := 0; r < 4; r++ {
		var w uint64
		for c := 0; c < 4; c++ {
			w |= uint64(uint16(r*4+c)) << (16 * uint(c))
		}
		words = append(words, w)
	}
	b.AllocQ("in", words, 8)
	b.Alloc("out", 32, 8)
	base, outp := isa.R(1), isa.R(2)
	b.MovI(base, int64(b.Sym("in")))
	b.MovI(outp, int64(b.Sym("out")))
	for i := 0; i < 4; i++ {
		b.Ldm(isa.M(i), base, int64(8*i))
	}
	p := pix{b: b, vec: false}
	p.transpose4x4h(
		[4]isa.Reg{isa.M(0), isa.M(1), isa.M(2), isa.M(3)},
		[4]isa.Reg{isa.M(4), isa.M(5), isa.M(6), isa.M(7)},
		[4]isa.Reg{isa.M(8), isa.M(9), isa.M(10), isa.M(11)})
	for i := 0; i < 4; i++ {
		b.Stm(isa.M(4+i), outp, int64(8*i))
	}
	m := runProg(t, b.Build())
	out := m.Mem.Bytes(m.Prog.Sym("out"), 32)
	for r := 0; r < 4; r++ {
		for c := 0; c < 4; c++ {
			got := uint16(out[2*(r*4+c)]) | uint16(out[2*(r*4+c)+1])<<8
			if got != uint16(c*4+r) {
				t.Fatalf("transpose (%d,%d) = %d, want %d", r, c, got, c*4+r)
			}
		}
	}
}
