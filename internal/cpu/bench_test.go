package cpu_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
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

var benchSweep cpu.SweepStats

// BenchmarkSweep is the warming walk's layer row: Sim.SweepCheckpoints, the
// parallel sampled path's one warming pass, over a pre-captured bench-scale
// mpeg2decode trace on the 4-way machine, Alpha on the conventional
// hierarchy and MOM on the collapsing buffer, at the sampling period of
// mom.DefaultSampleSpec. Serial sampled runs warm their skip spans through
// the same walk. It reports ns per swept record.
//
//	go test -run '^$' -bench BenchmarkSweep -count 5 ./internal/cpu
func BenchmarkSweep(b *testing.B) {
	app, err := apps.ByName("mpeg2decode", apps.ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	spec := cpu.SampleSpec{Period: 1501, Warmup: 100, Interval: 150}
	for _, c := range []struct {
		ext  isa.Ext
		mode mem.VectorMode
	}{
		{isa.ExtAlpha, mem.ModeConventional},
		{isa.ExtMOM, mem.ModeCollapsing},
	} {
		tr, err := trace.Capture(emu.New(app.Build(c.ext)), 50_000_000, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("mpeg2decode/%s/%s", c.ext, c.mode), func(b *testing.B) {
			cfg := cpu.NewConfig(4, c.ext)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := cpu.New(cfg, mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: c.mode})).SweepCheckpoints(tr, tr.Records(), spec)
				if err != nil {
					b.Fatal(err)
				}
				benchSweep = st
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*tr.Records()), "ns/record")
		})
	}
}
