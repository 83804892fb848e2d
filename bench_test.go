package mom

// The benchmark harness: one benchmark per paper artifact. Each benchmark
// regenerates its table/figure and reports the headline simulated metrics
// via b.ReportMetric, so `go test -bench=.` reproduces the evaluation.
//
// Benchmarks use ScaleTest workloads so the full suite stays tractable;
// `cmd/momsim -scale bench` runs the full-size versions.

import (
	"context"
	"fmt"
	"testing"
)

// BenchmarkFigure5 regenerates the kernel-level study and reports the mean
// MOM-over-MMX and MOM-over-Alpha speed-ups at 4-way issue.
func BenchmarkFigure5(b *testing.B) {
	var rows []KernelSpeedup
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure5(context.Background(), ScaleTest)
		if err != nil {
			b.Fatal(err)
		}
	}
	speed := map[string]float64{}
	for _, r := range rows {
		if r.Width == 4 {
			speed[fmt.Sprintf("%s/%s", r.Kernel, r.ISA)] = r.Speedup
		}
	}
	var momVsAlpha, momVsMMX float64
	n := 0.0
	for _, k := range KernelNames() {
		momVsAlpha += speed[k+"/MOM"] / speed[k+"/Alpha"]
		momVsMMX += speed[k+"/MOM"] / speed[k+"/MMX"]
		n++
	}
	b.ReportMetric(momVsAlpha/n, "MOM-vs-Alpha-4way")
	b.ReportMetric(momVsMMX/n, "MOM-vs-MMX-4way")
	var insts uint64
	for _, r := range rows {
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "dyninsts/s")
}

// BenchmarkFigure5Kernels times each kernel/ISA pair individually at 4-way
// (the bars of Figure 5), reporting simulated cycles.
func BenchmarkFigure5Kernels(b *testing.B) {
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			k, i := k, i
			b.Run(fmt.Sprintf("%s/%s", k, i), func(b *testing.B) {
				var cycles int64
				for n := 0; n < b.N; n++ {
					r, err := RunKernel(k, i, 4, PerfectMemory(1), ScaleTest)
					if err != nil {
						b.Fatal(err)
					}
					cycles = r.Cycles
				}
				b.ReportMetric(float64(cycles), "simcycles")
			})
		}
	}
}

// BenchmarkLatencyStudy regenerates the Section 4.1 latency-tolerance
// experiment and reports the mean slow-down per ISA.
func BenchmarkLatencyStudy(b *testing.B) {
	var rows []LatencyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = LatencyStudy(context.Background(), ScaleTest, 4)
		if err != nil {
			b.Fatal(err)
		}
	}
	sums := map[ISA]float64{}
	counts := map[ISA]float64{}
	for _, r := range rows {
		sums[r.ISA] += r.Slowdown
		counts[r.ISA]++
	}
	for _, i := range AllISAs {
		b.ReportMetric(sums[i]/counts[i], i.String()+"-slowdown")
	}
}

// BenchmarkFigure7 regenerates the program-level study and reports the mean
// MOM (multi-address) and MMX speed-ups over Alpha at 4-way.
func BenchmarkFigure7(b *testing.B) {
	var rows []AppSpeedup
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = Figure7(context.Background(), ScaleTest, SampleSpec{})
		if err != nil {
			b.Fatal(err)
		}
	}
	var momS, mmxS float64
	n := 0.0
	for _, r := range rows {
		if r.Width != 4 {
			continue
		}
		switch {
		case r.Config.ISA == MOM && r.Config.Cache == MultiAddress:
			momS += r.Speedup
			n++
		case r.Config.ISA == MMX:
			mmxS += r.Speedup
		}
	}
	b.ReportMetric(momS/n, "MOM-vs-Alpha-apps")
	b.ReportMetric(mmxS/n, "MMX-vs-Alpha-apps")
	var insts uint64
	for _, r := range rows {
		insts += r.Insts
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "dyninsts/s")
}

// BenchmarkFigure7Apps times each application/configuration pair (the bars
// of Figure 7) at 4-way issue.
func BenchmarkFigure7Apps(b *testing.B) {
	for _, a := range AppNames() {
		for _, cfg := range Figure7Configs {
			a, cfg := a, cfg
			b.Run(fmt.Sprintf("%s/%s", a, cfg), func(b *testing.B) {
				var cycles int64
				for n := 0; n < b.N; n++ {
					r, err := RunApp(a, cfg.ISA, 4, DetailedMemory(cfg.Cache), ScaleTest)
					if err != nil {
						b.Fatal(err)
					}
					cycles = r.Cycles
				}
				b.ReportMetric(float64(cycles), "simcycles")
			})
		}
	}
}

// BenchmarkFigure7AppsSampled is BenchmarkFigure7Apps under the default
// sampling regime: the trace is captured once outside the timed region
// (sampling only pays off against a recording) and each iteration
// fast-forwards between detailed windows. Compare simcycles here against
// the exact benchmark to see the estimate quality next to the speedup.
func BenchmarkFigure7AppsSampled(b *testing.B) {
	for _, a := range AppNames() {
		for _, cfg := range Figure7Configs {
			a, cfg := a, cfg
			b.Run(fmt.Sprintf("%s/%s", a, cfg), func(b *testing.B) {
				if CaptureWorkloadTrace(true, a, cfg.ISA, ScaleTest) == nil {
					b.Fatal("capture failed")
				}
				b.ResetTimer()
				var est int64
				for n := 0; n < b.N; n++ {
					r, err := RunAppSampled(a, cfg.ISA, 4, DetailedMemory(cfg.Cache), ScaleTest, DefaultSampleSpec)
					if err != nil {
						b.Fatal(err)
					}
					est = r.Sampled.EstCycles
				}
				b.ReportMetric(float64(est), "simcycles")
			})
		}
	}
}

// BenchmarkSimThroughput measures raw simulator speed — host-side dynamic
// instructions simulated per second — on a representative kernel, comparing
// the live interleaved emulate-and-time path against replay from a recorded
// trace. The gap between the two is the functional-emulation share that
// capture-once/replay-many amortises across machine configurations.
func BenchmarkSimThroughput(b *testing.B) {
	const kernel = "idct"
	b.Run("live", func(b *testing.B) {
		var insts uint64
		for n := 0; n < b.N; n++ {
			insts = runLive(b, false, kernel, MOM, 4, PerfectMemory(1)).Insts
		}
		b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "dyninsts/s")
	})
	b.Run("replay", func(b *testing.B) {
		if CaptureWorkloadTrace(false, kernel, MOM, ScaleTest) == nil {
			b.Fatal("capture failed")
		}
		b.ResetTimer()
		var insts uint64
		for n := 0; n < b.N; n++ {
			r, err := RunKernel(kernel, MOM, 4, PerfectMemory(1), ScaleTest)
			if err != nil {
				b.Fatal(err)
			}
			insts = r.Insts
		}
		b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "dyninsts/s")
	})
}

// BenchmarkTable2 recomputes the register-file area model (Table 2).
func BenchmarkTable2(b *testing.B) {
	var rows []Table2Entry
	for i := 0; i < b.N; i++ {
		rows = Table2()
	}
	for _, r := range rows {
		b.ReportMetric(r.NormalizedArea, r.ISA+"-area")
	}
}

// BenchmarkRegisterPressure sweeps the number of in-flight matrix registers
// (the "preliminary simulations" behind Table 2's 20 physical MOM
// registers): the ablation shows performance saturating around the chosen
// file size.
func BenchmarkRegisterPressure(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := RunKernel("idct", MOM, 4, PerfectMemory(1), ScaleTest); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdStartApp measures what the persistent trace artifact store
// buys a fresh process: the cost of making an application's trace
// available for replay. "cold" starts from an empty artifact directory —
// full functional capture plus the write-through — while "warm" starts
// against a directory a previous "process" already filled, so the trace
// decodes back from disk instead of being re-emulated. The RAM slot is
// evicted before every iteration; that is exactly the state a restarted
// momserver or a fresh momsim invocation begins in. Every replay the
// process then runs (each width × memory configuration) pays this
// acquisition cost exactly once, so the cold/warm gap here is the
// restart head-start the store provides.
func BenchmarkColdStartApp(b *testing.B) {
	app := AppNames()[0]
	key := traceKey{app: true, name: app, isa: MOM, scale: ScaleTest}
	acquire := func(b *testing.B) {
		b.Helper()
		if tr := CaptureWorkloadTrace(true, app, MOM, ScaleTest); tr == nil {
			b.Fatalf("trace of %s unavailable", app)
		}
	}
	b.Run("cold", func(b *testing.B) {
		st := installArtifactDir(b, b.TempDir())
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			resetTraceEntry(b, key)
			st.Invalidate(key.artifactKey())
			b.StartTimer()
			acquire(b)
		}
	})
	b.Run("warm", func(b *testing.B) {
		installArtifactDir(b, b.TempDir())
		resetTraceEntry(b, key) // a RAM hit would skip the write-through
		acquire(b)              // prime the artifact directory once, off the clock
		before := ReadTraceStats()
		b.ResetTimer()
		for n := 0; n < b.N; n++ {
			b.StopTimer()
			resetTraceEntry(b, key)
			b.StartTimer()
			acquire(b)
		}
		ts := ReadTraceStats()
		if hits := ts.DiskHits - before.DiskHits; hits != int64(b.N) {
			b.Fatalf("%d disk hits over %d warm acquisitions — the store was not serving", hits, b.N)
		}
	})
}
