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

// sampledBench is one bench-scale mpeg2decode trace of the sampled
// layer rows, with the ISA and cache organisation it runs on.
type sampledBench struct {
	ext  isa.Ext
	mode mem.VectorMode
	tr   *trace.Trace
}

// benchSpec is mom.DefaultSampleSpec's sampling regime.
var benchSpec = cpu.SampleSpec{Period: 1501, Warmup: 100, Interval: 150}

// sampledBenches captures bench-scale mpeg2decode for Alpha on the
// conventional hierarchy and for MOM on the collapsing buffer.
func sampledBenches(b *testing.B) []sampledBench {
	app, err := apps.ByName("mpeg2decode", apps.ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	out := []sampledBench{{ext: isa.ExtAlpha, mode: mem.ModeConventional}, {ext: isa.ExtMOM, mode: mem.ModeCollapsing}}
	for i := range out {
		if out[i].tr, err = trace.Capture(emu.New(app.Build(out[i].ext)), 50_000_000, 0); err != nil {
			b.Fatal(err)
		}
	}
	return out
}

// sim returns a fresh 4-way machine for c.
func (c sampledBench) sim() *cpu.Sim {
	return cpu.New(cpu.NewConfig(4, c.ext), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: c.mode}))
}

func (c sampledBench) name() string { return fmt.Sprintf("mpeg2decode/%s/%s", c.ext, c.mode) }

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
	for _, c := range sampledBenches(b) {
		b.Run(c.name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				st, err := c.sim().SweepCheckpoints(c.tr, c.tr.Records(), benchSpec)
				if err != nil {
					b.Fatal(err)
				}
				benchSweep = st
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*c.tr.Records()), "ns/record")
		})
	}
}

// BenchmarkWindows is the detailed windows' layer row: a 2-worker
// RunSampled at mom.DefaultSampleSpec over the same traces as
// BenchmarkSweep, after a first run has memoized the sweep log on the
// trace, so it times the blocks alone: each worker's roll forward through
// the log, and every window's warmup and measured interval in detail. It
// reports wall-clock ns per detailed (warmup or measured) record; on two
// idle CPUs that is about half their CPU time per record.
//
//	go test -run '^$' -bench BenchmarkWindows -count 5 ./internal/cpu
func BenchmarkWindows(b *testing.B) {
	spec := benchSpec
	spec.Parallelism = 2
	for _, c := range sampledBenches(b) {
		res, err := c.sim().RunSampled(c.tr.Reader(), c.tr.Records(), spec)
		if err != nil {
			b.Fatal(err)
		}
		detailed := res.Sampled.MeasuredInsts + res.Sampled.WarmupInsts
		b.Run(c.name(), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if benchResult, err = c.sim().RunSampled(c.tr.Reader(), c.tr.Records(), spec); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(uint64(b.N)*detailed), "ns/record")
		})
	}
}
