package cpu_test

import (
	"fmt"
	"testing"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
)

var benchResult cpu.Result

// BenchmarkRun is the timing core's layer row: Sim.Run over pre-captured
// kernel traces (bench scale) on perfect memory, which answers every access
// at a fixed latency and so leaves the memory model's cost out, for each
// kernel × ISA × issue width. idct is compute-bound; motion1 is load-bound,
// so its rows carry most of the load-store ordering check. It reports ns
// per replayed record.
//
//	go test -run '^$' -bench BenchmarkRun -count 5 ./internal/cpu
func BenchmarkRun(b *testing.B) {
	for _, name := range []string{"idct", "motion1"} {
		k, err := kernels.ByName(name, kernels.ScaleBench)
		if err != nil {
			b.Fatal(err)
		}
		for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMDMX, isa.ExtMOM} {
			benchRun(b, name, ext, k.Build(ext))
		}
	}
}

// benchRun times Sim.Run over one captured program at every issue width.
func benchRun(b *testing.B, name string, ext isa.Ext, p *isa.Program) {
	tr, err := trace.Capture(emu.New(p), 50_000_000, 0)
	if err != nil {
		b.Fatal(err)
	}
	for _, width := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%s/%s/%d", name, ext, width), func(b *testing.B) {
			cfg := cpu.NewConfig(width, ext)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := cpu.New(cfg, mem.NewPerfect(1)).Run(tr.Reader(), tr.Records())
				if err != nil {
					b.Fatal(err)
				}
				benchResult = res
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*tr.Records()), "ns/record")
		})
	}
}
