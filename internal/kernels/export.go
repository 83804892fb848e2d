package kernels

import (
	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/media"
)

// This file exports the kernel code generators in a form the application
// programs (internal/apps) can compose: each Emit* function appends one
// vectorised phase to an application program under construction.
//
// Register convention: callers may keep live state in r1..r5 only; the
// emitters are free to clobber r6..r28, every media/matrix register and the
// accumulators. Address arguments passed in registers use r8/r9/r10 by
// convention and are preserved.

// EnsureDCT allocates the shared DCT data (coefficient splat table,
// rounding constants and inter-pass scratch). Call once per program before
// any EmitIDCTBatch/EmitFDCTBatch.
func EnsureDCT(b *asm.Builder) {
	b.Alloc("dct.t1", 128*16, 8)
	b.Alloc("dct.t2", 128*16, 8)
	splats := make([]uint64, 64)
	for u := 0; u < 8; u++ {
		for n := 0; n < 8; n++ {
			splats[u*8+n] = splatHWord(media.DCTMat[u][n])
		}
	}
	b.AllocQ("dct.coef", splats, 8)
	b.AllocQ("dct.const", []uint64{
		uint64(media.DCTBias) | uint64(media.DCTBias)<<32, // 32-bit-lane bias
		splatHWord(1 << (media.IDCTPost - 1)),             // idct rounding
		splatHWord(256),                                   // bias product hi
		splatHWord(128),                                   // bias product lo
		splatHWord(1 << (media.FDCTPost - 1)),             // fdct rounding
	}, 8)
}

// dctConsts loads the hoisted constants; returns (biasW, roundI, m256,
// m128, roundF).
func dctConsts(b *asm.Builder) (biasW, roundI, m256, m128, roundF isa.Reg) {
	biasW, roundI, m256, m128, roundF = isa.M(30), isa.M(29), isa.M(28), isa.M(27), isa.M(26)
	t := isa.R(28)
	b.MovI(t, int64(b.Sym("dct.const")))
	b.Ldm(biasW, t, 0)
	b.Ldm(roundI, t, 8)
	b.Ldm(m256, t, 16)
	b.Ldm(m128, t, 24)
	b.Ldm(roundF, t, 32)
	return
}

// EmitIDCTBatch appends an inverse DCT over nb contiguous 8x8 int16 blocks
// (block stride 128 bytes) from srcAddr to dstAddr.
func EmitIDCTBatch(b *asm.Builder, ext isa.Ext, srcAddr, dstAddr int64, nb int) {
	emitDCTBatch(b, ext, srcAddr, dstAddr, nb, false)
}

// EmitFDCTBatch appends a forward DCT over nb contiguous blocks (input:
// level-shifted pixels as int16).
func EmitFDCTBatch(b *asm.Builder, ext isa.Ext, srcAddr, dstAddr int64, nb int) {
	emitDCTBatch(b, ext, srcAddr, dstAddr, nb, true)
}

func emitDCTBatch(b *asm.Builder, ext isa.Ext, srcAddr, dstAddr int64, nb int, forward bool) {
	if nb == 0 {
		return
	}
	blkP, outP := isa.R(8), isa.R(9)
	t1P, t2P, coefP, bc := isa.R(6), isa.R(7), isa.R(10), isa.R(23)
	b.MovI(blkP, srcAddr)
	b.MovI(outP, dstAddr)
	b.MovI(t1P, int64(b.Sym("dct.t1")))
	b.MovI(t2P, int64(b.Sym("dct.t2")))
	b.MovI(coefP, int64(b.Sym("dct.coef")))
	biasW, roundI, m256, m128, roundF := dctConsts(b)
	round, post := roundI, int64(media.IDCTPost)
	if forward {
		round, post = roundF, int64(media.FDCTPost)
	}

	switch ext {
	case isa.ExtAlpha:
		b.Loop(bc, int64(nb), func() {
			if forward {
				emitFDCTAlphaBlock(b, blkP, outP, t1P)
			} else {
				emitIDCTAlphaBlock(b, blkP, outP, t1P)
			}
			b.AddI(blkP, blkP, 128)
			b.AddI(outP, outP, 128)
		})

	case isa.ExtMMX, isa.ExtMDMX:
		p := pix{b: b, vec: false}
		acc := ext == isa.ExtMDMX
		b.Loop(bc, int64(nb), func() {
			if acc && forward {
				emitFDCTColPassAcc(b, blkP, t1P, coefP, m256, m128, true)
			} else if acc {
				emitIDCTColPassAcc(b, blkP, t1P, coefP, m256, m128, true)
			} else if forward {
				emitFDCTColPassPromote(p, blkP, t1P, isa.Reg{}, coefP, biasW, true)
			} else {
				emitIDCTColPassPromote(p, blkP, t1P, isa.Reg{}, coefP, biasW, true)
			}
			emitTranspose8x8(p, t1P, t2P, isa.Reg{}, round, 0)
			if acc && forward {
				emitFDCTColPassAcc(b, t2P, t1P, coefP, m256, m128, false)
			} else if acc {
				emitIDCTColPassAcc(b, t2P, t1P, coefP, m256, m128, false)
			} else if forward {
				emitFDCTColPassPromote(p, t2P, t1P, isa.Reg{}, coefP, biasW, false)
			} else {
				emitIDCTColPassPromote(p, t2P, t1P, isa.Reg{}, coefP, biasW, false)
			}
			emitTranspose8x8(p, t1P, outP, isa.Reg{}, round, post)
			b.AddI(blkP, blkP, 128)
			b.AddI(outP, outP, 128)
		})

	case isa.ExtMOM:
		p := pix{b: b, vec: true}
		stride := isa.R(24)
		b.MovI(stride, 128)
		chunkBody := func() {
			if forward {
				emitFDCTColPassPromote(p, blkP, t1P, stride, coefP, biasW, true)
			} else {
				emitIDCTColPassPromote(p, blkP, t1P, stride, coefP, biasW, true)
			}
			emitTranspose8x8(p, t1P, t2P, stride, round, 0)
			if forward {
				emitFDCTColPassPromote(p, t2P, t1P, stride, coefP, biasW, false)
			} else {
				emitIDCTColPassPromote(p, t2P, t1P, stride, coefP, biasW, false)
			}
			emitTranspose8x8(p, t1P, outP, stride, round, post)
		}
		full, rem := nb/16, nb%16
		if full > 0 {
			b.SetVLI(16)
			b.Loop(bc, int64(full), func() {
				chunkBody()
				b.AddI(blkP, blkP, 16*128)
				b.AddI(outP, outP, 16*128)
			})
		}
		if rem > 0 {
			b.SetVLI(rem)
			chunkBody()
			b.SetVLI(16)
		}
	}
}

// EmitBlockSAD appends a 16x16 SAD: res <- sum |cur - ref| with row stride
// w. curR/refR hold the block base addresses.
func EmitBlockSAD(b *asm.Builder, ext isa.Ext, w int, curR, refR, res isa.Reg) {
	switch ext {
	case isa.ExtAlpha:
		emitMotionAlpha(b, w, curR, refR, res, false)
	case isa.ExtMMX:
		emitMotionMMX(b, w, curR, refR, res, false)
	case isa.ExtMDMX:
		emitMotionMDMX(b, w, curR, refR, res, false)
	case isa.ExtMOM:
		stride := isa.R(28)
		b.MovI(stride, int64(w))
		b.SetVLI(16)
		emitMotionMOM(b, curR, refR, stride, res, false)
	}
}

// EmitAvgBlock16 appends a 16x16 bidirectional average: out = (f+g+1)>>1,
// all three with row stride w.
func EmitAvgBlock16(b *asm.Builder, ext isa.Ext, w int, fR, gR, oR isa.Reg) {
	switch ext {
	case isa.ExtAlpha:
		x, y, row := isa.R(11), isa.R(12), isa.R(13)
		fp, gp, op := isa.R(14), isa.R(15), isa.R(16)
		b.Mov(fp, fR)
		b.Mov(gp, gR)
		b.Mov(op, oR)
		b.Loop(row, 16, func() {
			for i := int64(0); i < 16; i++ {
				b.Ldbu(x, fp, i)
				b.Ldbu(y, gp, i)
				b.Add(x, x, y)
				b.AddI(x, x, 1)
				b.SrlI(x, x, 1)
				b.Stb(x, op, i)
			}
			b.AddI(fp, fp, int64(w))
			b.AddI(gp, gp, int64(w))
			b.AddI(op, op, int64(w))
		})
	case isa.ExtMMX, isa.ExtMDMX:
		p := pix{b: b, vec: false}
		row := isa.R(13)
		fp, gp, op := isa.R(14), isa.R(15), isa.R(16)
		b.Mov(fp, fR)
		b.Mov(gp, gR)
		b.Mov(op, oR)
		b.Loop(row, 16, func() {
			for _, off := range []int64{0, 8} {
				p.ld(p.r(0), fp, isa.Reg{}, off)
				p.ld(p.r(1), gp, isa.Reg{}, off)
				p.op(isa.PAVGB, p.r(2), p.r(0), p.r(1))
				p.st(p.r(2), op, isa.Reg{}, off)
			}
			b.AddI(fp, fp, int64(w))
			b.AddI(gp, gp, int64(w))
			b.AddI(op, op, int64(w))
		})
	case isa.ExtMOM:
		p := pix{b: b, vec: true}
		stride := isa.R(28)
		b.MovI(stride, int64(w))
		b.SetVLI(16)
		for _, off := range []int64{0, 8} {
			p.ld(p.r(0), fR, stride, off)
			p.ld(p.r(1), gR, stride, off)
			p.op(isa.PAVGB, p.r(2), p.r(0), p.r(1))
			p.st(p.r(2), oR, stride, off)
		}
	}
}

// EmitAddBlock8 appends an 8x8 reconstruction: out = sat8(pred + res)
// where pred/out have row stride w and res is an int16 block (stride 16
// bytes). The Alpha version uses the memory clip table at symbol
// "cliptab" (EnsureClipTab).
func EmitAddBlock8(b *asm.Builder, ext isa.Ext, w int, predR, resR, outR isa.Reg) {
	switch ext {
	case isa.ExtAlpha:
		tabR := isa.R(28)
		b.MovI(tabR, int64(b.Sym("cliptab")))
		x, y, a, row := isa.R(11), isa.R(12), isa.R(13), isa.R(14)
		pp, rp, op := isa.R(15), isa.R(16), isa.R(17)
		b.Mov(pp, predR)
		b.Mov(rp, resR)
		b.Mov(op, outR)
		b.Loop(row, 8, func() {
			for i := int64(0); i < 8; i++ {
				b.Ldbu(x, pp, i)
				b.Ldwu(y, rp, 2*i)
				b.Op(isa.SEXTW, y, y, isa.Reg{})
				b.Add(x, x, y)
				b.Add(a, tabR, x)
				b.Ldbu(x, a, 512)
				b.Stb(x, op, i)
			}
			b.AddI(pp, pp, int64(w))
			b.AddI(rp, rp, 16)
			b.AddI(op, op, int64(w))
		})
	case isa.ExtMMX, isa.ExtMDMX:
		p := pix{b: b, vec: false}
		b.Op(isa.PZERO, isa.M(25), isa.Reg{}, isa.Reg{})
		row := isa.R(14)
		pp, rp, op := isa.R(15), isa.R(16), isa.R(17)
		b.Mov(pp, predR)
		b.Mov(rp, resR)
		b.Mov(op, outR)
		b.Loop(row, 8, func() {
			p.ld(p.r(0), pp, isa.Reg{}, 0)
			p.op(isa.PUNPKLB, p.r(1), p.r(0), isa.M(25))
			p.op(isa.PUNPKHB, p.r(2), p.r(0), isa.M(25))
			p.ld(p.r(3), rp, isa.Reg{}, 0)
			p.ld(p.r(4), rp, isa.Reg{}, 8)
			p.op(isa.PADDH, p.r(1), p.r(1), p.r(3))
			p.op(isa.PADDH, p.r(2), p.r(2), p.r(4))
			p.op(isa.PACKUSHB, p.r(5), p.r(1), p.r(2))
			p.st(p.r(5), op, isa.Reg{}, 0)
			b.AddI(pp, pp, int64(w))
			b.AddI(rp, rp, 16)
			b.AddI(op, op, int64(w))
		})
	case isa.ExtMOM:
		p := pix{b: b, vec: true}
		strideW, stride16 := isa.R(28), isa.R(27)
		b.MovI(strideW, int64(w))
		b.MovI(stride16, 16)
		b.Op(isa.PZERO, isa.M(25), isa.Reg{}, isa.Reg{})
		b.SetVLI(8)
		p.ld(p.r(0), predR, strideW, 0)
		p.op(isa.PUNPKLB, p.r(1), p.r(0), isa.M(25))
		p.op(isa.PUNPKHB, p.r(2), p.r(0), isa.M(25))
		p.ld(p.r(3), resR, stride16, 0)
		p.ld(p.r(4), resR, stride16, 8)
		p.op(isa.PADDH, p.r(1), p.r(1), p.r(3))
		p.op(isa.PADDH, p.r(2), p.r(2), p.r(4))
		p.op(isa.PACKUSHB, p.r(5), p.r(1), p.r(2))
		p.st(p.r(5), outR, strideW, 0)
		b.SetVLI(16)
	}
}

// EnsureClipTab allocates the Alpha saturation lookup table used by
// EmitAddBlock8 (covering sums in [-512, 1023]).
func EnsureClipTab(b *asm.Builder) {
	tab := make([]byte, 1536)
	for i := range tab {
		v := i - 512
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		tab[i] = byte(v)
	}
	b.AllocBytes("cliptab", tab, 8)
}

// EmitDiffBlock8 appends an 8x8 residual computation: res (int16, stride
// 16 bytes) = cur - pred (bytes, row stride w).
func EmitDiffBlock8(b *asm.Builder, ext isa.Ext, w int, curR, predR, resR isa.Reg) {
	switch ext {
	case isa.ExtAlpha:
		x, y, row := isa.R(11), isa.R(12), isa.R(14)
		cp, pp, rp := isa.R(15), isa.R(16), isa.R(17)
		b.Mov(cp, curR)
		b.Mov(pp, predR)
		b.Mov(rp, resR)
		b.Loop(row, 8, func() {
			for i := int64(0); i < 8; i++ {
				b.Ldbu(x, cp, i)
				b.Ldbu(y, pp, i)
				b.Sub(x, x, y)
				b.Stw(x, rp, 2*i)
			}
			b.AddI(cp, cp, int64(w))
			b.AddI(pp, pp, int64(w))
			b.AddI(rp, rp, 16)
		})
	case isa.ExtMMX, isa.ExtMDMX:
		p := pix{b: b, vec: false}
		b.Op(isa.PZERO, isa.M(25), isa.Reg{}, isa.Reg{})
		row := isa.R(14)
		cp, pp, rp := isa.R(15), isa.R(16), isa.R(17)
		b.Mov(cp, curR)
		b.Mov(pp, predR)
		b.Mov(rp, resR)
		b.Loop(row, 8, func() {
			emitDiffRow(p, cp, pp, rp, isa.Reg{}, isa.Reg{})
			b.AddI(cp, cp, int64(w))
			b.AddI(pp, pp, int64(w))
			b.AddI(rp, rp, 16)
		})
	case isa.ExtMOM:
		p := pix{b: b, vec: true}
		strideW, stride16 := isa.R(28), isa.R(27)
		b.MovI(strideW, int64(w))
		b.MovI(stride16, 16)
		b.Op(isa.PZERO, isa.M(25), isa.Reg{}, isa.Reg{})
		b.SetVLI(8)
		emitDiffRow(p, curR, predR, resR, strideW, stride16)
		b.SetVLI(16)
	}
}

// emitDiffRow: 8 pixels -> 2 words of int16 differences.
func emitDiffRow(p pix, cp, pp, rp isa.Reg, strideIn, strideOut isa.Reg) {
	p.ld(p.r(0), cp, strideIn, 0)
	p.ld(p.r(1), pp, strideIn, 0)
	p.op(isa.PUNPKLB, p.r(2), p.r(0), isa.M(25))
	p.op(isa.PUNPKHB, p.r(3), p.r(0), isa.M(25))
	p.op(isa.PUNPKLB, p.r(4), p.r(1), isa.M(25))
	p.op(isa.PUNPKHB, p.r(5), p.r(1), isa.M(25))
	p.op(isa.PSUBH, p.r(2), p.r(2), p.r(4))
	p.op(isa.PSUBH, p.r(3), p.r(3), p.r(5))
	p.st(p.r(2), rp, strideOut, 0)
	p.st(p.r(3), rp, strideOut, 8)
}

// EmitBlockSADAvg appends a 16x16 SAD against an interpolated reference:
// res <- sum |cur - avg(refA, refB)| with row stride w. With refB == refA
// this degenerates to the integer-pel distance (avg(x,x) = x), which lets
// half-pel motion search treat every candidate uniformly.
func EmitBlockSADAvg(b *asm.Builder, ext isa.Ext, w int, curR, refAR, refBR, res isa.Reg) {
	switch ext {
	case isa.ExtAlpha:
		a, pq, q, nd, row := isa.R(11), isa.R(12), isa.R(13), isa.R(14), isa.R(15)
		cp, ap, bp := isa.R(16), isa.R(17), isa.R(18)
		b.MovI(res, 0)
		b.Mov(cp, curR)
		b.Mov(ap, refAR)
		b.Mov(bp, refBR)
		b.Loop(row, 16, func() {
			for i := int64(0); i < 16; i++ {
				b.Ldbu(pq, ap, i)
				b.Ldbu(q, bp, i)
				b.Add(pq, pq, q)
				b.AddI(pq, pq, 1)
				b.SrlI(pq, pq, 1)
				b.Ldbu(a, cp, i)
				b.Sub(a, a, pq)
				b.Op(isa.SUBQ, nd, isa.Zero, a)
				b.Op(isa.CMOVLT, a, a, nd)
				b.Add(res, res, a)
			}
			b.AddI(cp, cp, int64(w))
			b.AddI(ap, ap, int64(w))
			b.AddI(bp, bp, int64(w))
		})
	case isa.ExtMMX:
		row, cp, ap, bp, t := isa.R(15), isa.R(16), isa.R(17), isa.R(18), isa.R(13)
		b.Op(isa.PZERO, isa.M(8), isa.Reg{}, isa.Reg{})
		b.Op(isa.PZERO, isa.M(9), isa.Reg{}, isa.Reg{})
		b.Mov(cp, curR)
		b.Mov(ap, refAR)
		b.Mov(bp, refBR)
		b.Loop(row, 16, func() {
			for k, off := range []int64{0, 8} {
				b.Ldm(isa.M(0), cp, off)
				b.Ldm(isa.M(1), ap, off)
				b.Ldm(isa.M(2), bp, off)
				b.Op(isa.PAVGB, isa.M(1), isa.M(1), isa.M(2))
				b.Op(isa.PSADBW, isa.M(3), isa.M(0), isa.M(1))
				b.Op(isa.PADDW, isa.M(8+k), isa.M(8+k), isa.M(3))
			}
			b.AddI(cp, cp, int64(w))
			b.AddI(ap, ap, int64(w))
			b.AddI(bp, bp, int64(w))
		})
		b.Op(isa.PADDW, isa.M(8), isa.M(8), isa.M(9))
		b.OpI(isa.PSRLQ, isa.M(9), isa.M(8), 32)
		b.Op(isa.PADDW, isa.M(8), isa.M(8), isa.M(9))
		b.Op(isa.MFM, t, isa.M(8), isa.Reg{})
		b.OpI(isa.AND, res, t, 0xffffffff)
	case isa.ExtMDMX:
		row, cp, ap, bp, t := isa.R(15), isa.R(16), isa.R(17), isa.R(18), isa.R(13)
		b.Op(isa.ACLR, isa.A(0), isa.Reg{}, isa.Reg{})
		b.Op(isa.ACLR, isa.A(1), isa.Reg{}, isa.Reg{})
		b.Mov(cp, curR)
		b.Mov(ap, refAR)
		b.Mov(bp, refBR)
		b.Loop(row, 16, func() {
			for k, off := range []int64{0, 8} {
				b.Ldm(isa.M(0), cp, off)
				b.Ldm(isa.M(1), ap, off)
				b.Ldm(isa.M(2), bp, off)
				b.Op(isa.PAVGB, isa.M(1), isa.M(1), isa.M(2))
				b.Op(isa.ACCABDB, isa.A(k), isa.M(0), isa.M(1))
			}
			b.AddI(cp, cp, int64(w))
			b.AddI(ap, ap, int64(w))
			b.AddI(bp, bp, int64(w))
		})
		b.OpI(isa.RACSUM, res, isa.A(0), 0)
		b.OpI(isa.RACSUM, t, isa.A(1), 0)
		b.Add(res, res, t)
	case isa.ExtMOM:
		stride, t := isa.R(28), isa.R(13)
		b.MovI(stride, int64(w))
		b.SetVLI(16)
		b.Op(isa.ACLR, isa.VA(0), isa.Reg{}, isa.Reg{})
		b.Op(isa.ACLR, isa.VA(1), isa.Reg{}, isa.Reg{})
		for k, off := range []int64{0, 8} {
			b.MomLd(isa.V(0), curR, stride, off)
			b.MomLd(isa.V(1), refAR, stride, off)
			b.MomLd(isa.V(2), refBR, stride, off)
			b.Op(isa.PAVGB.Vector(), isa.V(1), isa.V(1), isa.V(2))
			b.Op(isa.ACCABDB.Vector(), isa.VA(k), isa.V(0), isa.V(1))
		}
		b.OpI(isa.RACSUM, res, isa.VA(0), 0)
		b.OpI(isa.RACSUM, t, isa.VA(1), 0)
		b.Add(res, res, t)
	}
}
