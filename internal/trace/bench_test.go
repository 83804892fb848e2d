package trace

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

var benchTrace *Trace

// BenchmarkCapture is the capture layer's row: Capture of one kernel
// (idct, bench scale) from a fresh machine, for each ISA. It reports ns
// per captured record; allocs/op counts the capture's own allocations, the
// machine's memory image included.
//
//	go test -run '^$' -bench BenchmarkCapture -count 5 ./internal/trace
func BenchmarkCapture(b *testing.B) {
	k, err := kernels.ByName("idct", kernels.ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMDMX, isa.ExtMOM} {
		p := k.Build(ext)
		b.Run(ext.String(), func(b *testing.B) {
			b.ReportAllocs()
			var records uint64
			for i := 0; i < b.N; i++ {
				tr, err := Capture(emu.New(p), testMaxSteps, 0)
				if err != nil {
					b.Fatal(err)
				}
				records += tr.Records()
				benchTrace = tr
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
		})
	}
}
