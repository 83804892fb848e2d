package cpu_test

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
)

// rateShort and rateLong are the two lengths each rate's micro-program
// runs at: the marginal cost over the rateLong-rateShort extra
// instructions cancels pipeline fill and drain.
const rateShort, rateLong = 1000, 3000

// marginalRate runs build at both lengths on cfg over 1-cycle perfect
// memory and returns the extra cycles per extra instruction.
func marginalRate(t *testing.T, build func(n int) *isa.Program, cfg cpu.Config) float64 {
	t.Helper()
	short := runCfg(t, build(rateShort), cfg, mem.NewPerfect(1))
	long := runCfg(t, build(rateLong), cfg, mem.NewPerfect(1))
	return float64(long.Cycles-short.Cycles) / (rateLong - rateShort)
}

// TestTable1Rates pins Table 1's core resources as closed-form rates on
// the Alpha machine: micro-programs built with internal/asm, each timed at
// two lengths, must take the marginal cycles per instruction that the
// configuration's own fields give.
//   - A chain of dependent AddI takes one cycle per link at every width,
//     the integer latency.
//   - Independent AddI issue min(Width, IntSimple+IntComplex) a cycle: a
//     complex integer unit also takes simple operations. The units are a
//     ring, so a run may end one wrap short, within 1/N of the rate.
//   - Independent loads on 1-cycle perfect memory issue MemPorts a cycle
//     from 2-way up. At 1-way the 4-entry LSQ binds first (1.25 cycles a
//     load, DESIGN.md §6), so that width is left out.
func TestTable1Rates(t *testing.T) {
	rows := []struct {
		name   string
		widths []int
		build  func(n int) *isa.Program
		want   func(cpu.Config) float64
		tol    float64
	}{
		{"dependent AddI chain", []int{1, 2, 4, 8}, func(n int) *isa.Program {
			b := asm.New("chain")
			for i := 0; i < n; i++ {
				b.AddI(isa.R(1), isa.R(1), 1)
			}
			return b.Build()
		}, func(cpu.Config) float64 { return 1 }, 0},
		{"independent AddI", []int{1, 2, 4, 8}, func(n int) *isa.Program {
			b := asm.New("intops")
			for i := 0; i < n; i++ {
				b.AddI(isa.R(1+i%8), isa.R(9), int64(i))
			}
			return b.Build()
		}, func(c cpu.Config) float64 {
			return 1 / float64(min(c.Width, c.IntSimple+c.IntComplex))
		}, 1.0 / (rateLong - rateShort)},
		{"independent loads", []int{2, 4, 8}, func(n int) *isa.Program {
			b := asm.New("loads")
			buf := b.Alloc("buf", 128, 8)
			b.MovI(isa.R(9), int64(buf))
			for i := 0; i < n; i++ {
				b.Ldq(isa.R(1+i%8), isa.R(9), int64(8*(i%16)))
			}
			return b.Build()
		}, func(c cpu.Config) float64 { return 1 / float64(c.MemPorts) }, 0},
	}
	for _, r := range rows {
		for _, w := range r.widths {
			cfg := cpu.NewConfig(w, isa.ExtAlpha)
			got, want := marginalRate(t, r.build, cfg), r.want(cfg)
			if math.Abs(got-want) > r.tol {
				t.Errorf("%s at %d-way: %.4f cycles an instruction, want %.4f", r.name, w, got, want)
			}
		}
	}
}
