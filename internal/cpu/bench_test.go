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

// BenchmarkRun is the timing core's layer row: Sim.Run over one
// pre-captured kernel trace (idct, bench scale) on perfect memory, which
// answers every access at a fixed latency and so leaves the memory model's
// cost out, for each ISA × issue width. It reports ns per replayed record.
//
//	go test -run '^$' -bench BenchmarkRun -count 5 ./internal/cpu
func BenchmarkRun(b *testing.B) {
	k, err := kernels.ByName("idct", kernels.ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMDMX, isa.ExtMOM} {
		tr, err := trace.Capture(emu.New(k.Build(ext)), 50_000_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		for _, width := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/%d", ext, width), func(b *testing.B) {
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
}
