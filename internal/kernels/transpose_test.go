package kernels

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// transposeTiles is the number of 8x8 halfword tiles the ablation
// transposes.
const transposeTiles = 256

// transposeCycles times transposing transposeTiles 8x8 halfword tiles on
// the MOM machine of the given width with perfect 1-cycle memory, either
// with the dedicated MOMTRANSH instruction (3 instructions per tile) or
// with the packed unpack network of the MMX IDCT (emitTranspose8x8, the
// fallback MOM makes unnecessary). The program runs once through the
// emulator into a recorded trace, which the timing core replays.
func transposeCycles(tb testing.TB, matrixOp bool, width int) int64 {
	tb.Helper()
	b := asm.New("transpose-ablation")
	rng := uint64(1)
	blocks := make([]int16, 64*transposeTiles)
	for i := range blocks {
		rng = rng*6364136223846793005 + 1442695040888963407
		blocks[i] = int16(rng >> 48)
	}
	b.AllocH("in", blocks, 8)
	b.Alloc("out", 128*transposeTiles, 8)
	inP, outP, stride, ctr := isa.R(8), isa.R(9), isa.R(10), isa.R(11)
	b.MovI(inP, int64(b.Sym("in")))
	b.MovI(outP, int64(b.Sym("out")))
	b.MovI(stride, 8)
	b.SetVLI(16)
	b.Loop(ctr, transposeTiles, func() {
		if matrixOp {
			b.MomLd(isa.V(0), inP, stride, 0)
			b.Op(isa.MOMTRANSH, isa.V(1), isa.V(0), isa.Reg{})
			b.MomSt(isa.V(1), outP, stride, 0)
		} else {
			emitTranspose8x8(pix{b: b}, inP, outP, isa.Reg{}, isa.M(29), 0)
		}
		b.AddI(inP, inP, 128)
		b.AddI(outP, outP, 128)
	})
	tr, err := trace.Capture(emu.New(b.Build()), 10_000_000, 0)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := cpu.New(cpu.NewConfig(width, isa.ExtMOM), mem.NewPerfect(1)).Run(tr.Reader(), tr.Records())
	if err != nil {
		tb.Fatal(err)
	}
	return res.Cycles
}

// TestTransposeAblation pins EXPERIMENTS.md's transpose-ablation claim:
// the matrix transpose wins where fetch bandwidth is scarce (at 1-way
// MOMTRANSH takes at most 0.8x the unpack network's cycles) and ties once
// a wide core hides the instruction count (at 4-way the two lie within
// 10% of each other).
func TestTransposeAblation(t *testing.T) {
	ratio := func(width int) float64 {
		return float64(transposeCycles(t, true, width)) / float64(transposeCycles(t, false, width))
	}
	if r := ratio(1); r > 0.8 {
		t.Errorf("1-way: MOMTRANSH takes %.3fx the unpack network's cycles, want at most 0.8x", r)
	}
	if r := ratio(4); r < 1/1.1 || r > 1.1 {
		t.Errorf("4-way: MOMTRANSH takes %.3fx the unpack network's cycles, want within 10%%", r)
	}
}

// BenchmarkTransposeAblation times the two transposes of TestTransposeAblation
// (the paper's matrix-operation argument: MOMTRANSH is "especially useful
// to switch vector dimensions without using pack/unpack operations").
// Reported metric: simulated cycles per 8x8 tile.
func BenchmarkTransposeAblation(b *testing.B) {
	for _, width := range []int{1, 4} {
		for _, mode := range []string{"momtransh", "unpack-network"} {
			b.Run(fmt.Sprintf("%s/%d-way", mode, width), func(b *testing.B) {
				var cycles int64
				for n := 0; n < b.N; n++ {
					cycles = transposeCycles(b, mode == "momtransh", width)
				}
				b.ReportMetric(float64(cycles)/transposeTiles, "simcycles/block")
			})
		}
	}
}
