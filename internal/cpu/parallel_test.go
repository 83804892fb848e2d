package cpu_test

// Tests for the parallel (two-phase checkpoint) sampled path: bit-identity
// against the serial loop across memory models, invariance under the
// worker count, and the serial fallback when the preconditions fail.

import (
	"reflect"
	"testing"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// parTestSpec has a skip span (Period-Warmup-Interval = 1640) long enough
// for the parallel path's drain gate; the shared testSpec (skip 540) is
// below it and exercises the fallback instead.
var parTestSpec = cpu.SampleSpec{Period: 1800, Warmup: 60, Interval: 100}

// parTestModels pairs each memory model a sweep log can carry with an ISA
// whose code exercises it (the vector organisations need MOM vector
// accesses).
func parTestModels(width int) []struct {
	name string
	ext  isa.Ext
	mk   func() mem.Model
} {
	return []struct {
		name string
		ext  isa.Ext
		mk   func() mem.Model
	}{
		{"perfect", isa.ExtMOM, func() mem.Model { return mem.NewPerfect(1) }},
		{"conventional", isa.ExtAlpha, func() mem.Model {
			return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: mem.ModeConventional})
		}},
		{"multi-address", isa.ExtMOM, func() mem.Model {
			return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: mem.ModeMultiAddress})
		}},
		{"vector-cache", isa.ExtMOM, func() mem.Model {
			return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: mem.ModeVectorCache})
		}},
		{"collapsing", isa.ExtMOM, func() mem.Model {
			return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: mem.ModeCollapsing})
		}},
	}
}

// TestParallelSampledBitIdentity: the parallel path must reproduce the
// serial sampled result field for field — counters, cycles, Mem stats,
// IPC mean and stderr, and the Sampled block with its derived
// SkippedInsts — for every memory-model organisation. idct and motion1
// run to the end of their traces, an empty trace must give the serial
// run's zero result, and mpeg2decode (49 windows of parTestSpec on MOM at
// test scale) is also cut short by maxInsts at every kind of point. Under
// a period of chunkRecords/8 every 8th window starts exactly on a chunk
// end, where a block seeks to a cursor the sweep took at the end of a
// batch: mpeg2decode/MOM runs 22 windows of it, two of them starting at
// chunk ends, cut there, one record past the second and at the end. A
// spec with parTestSpec's period but another warmup and interval reuses
// that spec's sweep log.
func TestParallelSampledBitIdentity(t *testing.T) {
	const all = 50_000_000
	sp := parTestSpec
	p := sp.Period
	// With 4 workers the parallel path carves blocks of ceil(windows/16)
	// windows: a 36-window run is 12 blocks of 3 windows, so 36·Period ends
	// on a block boundary, while 37·Period ends on a window boundary inside
	// a block.
	cuts := []uint64{
		20*p + sp.Warmup/2,                 // inside a warmup
		20*p + sp.Warmup + sp.Interval/2,   // inside a measured interval
		20*p + (sp.Warmup+sp.Interval+p)/2, // inside a skip
		37 * p,                             // on a window boundary
		36 * p,                             // on a block boundary
	}
	empty, err := trace.Capture(emu.New(&isa.Program{Name: "empty"}), all, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range parTestModels(4) {
		mpeg := captureApp(t, "mpeg2decode", m.ext)
		if mpeg.Records() <= 37*p {
			t.Fatalf("mpeg2decode/%v has %d records, too few for the cut points", m.ext, mpeg.Records())
		}
		aligned := cpu.SampleSpec{Period: chunkRecords / 8, Warmup: sp.Warmup, Interval: sp.Interval}
		inputs := []struct {
			name     string
			tr       *trace.Trace
			spec     cpu.SampleSpec
			maxInsts []uint64
		}{
			{"idct", captureKernel(t, "idct", m.ext), sp, []uint64{all}},
			{"motion1", captureKernel(t, "motion1", m.ext), sp, []uint64{all}},
			{"empty", empty, sp, []uint64{all}},
			{"mpeg2decode", mpeg, sp, append(cuts, mpeg.Records(), mpeg.Records()+1, all)},
			{"mpeg2decode/chunk-aligned", mpeg, aligned, []uint64{chunkRecords, 2 * chunkRecords, 2*chunkRecords + 1, all}},
			// The sweep log depends on the period, not on warmup or
			// interval: this run reuses the log of the parTestSpec runs.
			{"mpeg2decode/shared-log", mpeg, cpu.SampleSpec{Period: sp.Period, Warmup: 200, Interval: 300}, []uint64{all}},
		}
		for _, in := range inputs {
			for _, maxInsts := range in.maxInsts {
				run := func(workers int) cpu.Result {
					spec := in.spec
					spec.Parallelism = workers
					res, err := cpu.New(cpu.NewConfig(4, m.ext), m.mk()).RunSampled(in.tr.Reader(), maxInsts, spec)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				// On 4 workers most blocks are one window long; on 2 a block
				// crosses between its windows through the log.
				serial := run(1)
				for _, workers := range []int{2, 4} {
					if par := run(workers); !reflect.DeepEqual(serial, par) {
						t.Errorf("%s/%s maxInsts %d on %d workers: parallel sampled run differs from serial:\n%+v %+v\nvs\n%+v %+v",
							in.name, m.name, maxInsts, workers, par, *par.Sampled, serial, *serial.Sampled)
					}
				}
				if want := min(in.tr.Records(), maxInsts); serial.Sampled.TotalInsts != want {
					t.Errorf("%s/%s maxInsts %d: covered %d records, want %d",
						in.name, m.name, maxInsts, serial.Sampled.TotalInsts, want)
				}
			}
		}
	}
}

// TestParallelWorkerCountInvariance: any worker count yields the serial
// result (the reduce is ordered, not arrival-ordered). mpeg2encode/MOM cut
// at 96 windows of parTestSpec splits into 4 blocks per worker on 2, 3 and
// 8 workers (8, 12 and 32 blocks) and 3 per worker on 16, so each worker
// keeps its state across several blocks and rolls it forward past blocks
// other workers ran.
func TestParallelWorkerCountInvariance(t *testing.T) {
	tr := captureApp(t, "mpeg2encode", isa.ExtMOM)
	maxInsts := 96 * parTestSpec.Period
	if tr.Records() < maxInsts {
		t.Fatalf("mpeg2encode/MOM has %d records, fewer than 96 windows", tr.Records())
	}
	for _, mode := range []mem.VectorMode{mem.ModeMultiAddress, mem.ModeCollapsing} {
		run := func(workers int) cpu.Result {
			spec := parTestSpec
			spec.Parallelism = workers
			sim := cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mode}))
			res, err := sim.RunSampled(tr.Reader(), maxInsts, spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		want := run(1)
		for _, workers := range []int{2, 3, 8, 16} {
			if got := run(workers); !reflect.DeepEqual(got, want) {
				t.Errorf("%v on %d workers differs from the serial run:\n%+v\nvs\n%+v", mode, workers, got, want)
			}
		}
	}
}

// TestParallelShortSkipFallsBack: a skip span below the drain gate must
// fall back to the serial loop (and so still match it exactly).
func TestParallelShortSkipFallsBack(t *testing.T) {
	tr := captureKernel(t, "idct", isa.ExtMOM)
	mk := func() *cpu.Sim {
		return cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
	}
	serial, err := mk().RunSampled(tr.Reader(), 50_000_000, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec
	spec.Parallelism = 8
	par, err := mk().RunSampled(tr.Reader(), 50_000_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Errorf("short-skip parallel request differs from serial:\n%+v\nvs\n%+v", par, serial)
	}
}

// TestSampledColdStart: a run starts from a cold memory model, so its
// result depends only on the trace, the machine and the spec. A model that
// first ran 40,000 records exactly gives the cold model's result, sampled
// serially and on 2 workers and exactly, whichever of the two sweeps the
// trace's checkpoint log first (each order on a freshly captured trace).
func TestSampledColdStart(t *testing.T) {
	spec := cpu.SampleSpec{Period: 1501, Warmup: 100, Interval: 150}
	par2 := spec
	par2.Parallelism = 2
	for _, usedFirst := range []bool{false, true} {
		tr := captureApp(t, "mpeg2decode", isa.ExtMOM)
		run := func(used bool, sp cpu.SampleSpec) cpu.Result {
			sim := cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
			if used {
				if _, err := sim.Run(tr.Reader(), 40_000); err != nil {
					t.Fatal(err)
				}
			}
			res, err := sim.RunSampled(tr.Reader(), tr.Records(), sp)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		sampled, exact := map[bool]cpu.Result{}, map[bool]cpu.Result{}
		for _, used := range []bool{usedFirst, !usedFirst} {
			par, serial := run(used, par2), run(used, spec)
			if !reflect.DeepEqual(par, serial) {
				t.Errorf("used %v (used first: %v): 2-worker run differs from the serial one: %d vs %d cycles\n%+v\nvs\n%+v",
					used, usedFirst, par.Cycles, serial.Cycles, par, serial)
			}
			sampled[used], exact[used] = serial, run(used, cpu.SampleSpec{})
		}
		if !reflect.DeepEqual(sampled[true], sampled[false]) {
			t.Errorf("used first: %v: the used model reads %d sampled cycles, the cold one %d",
				usedFirst, sampled[true].Cycles, sampled[false].Cycles)
		}
		if !reflect.DeepEqual(exact[true], exact[false]) {
			t.Errorf("used first: %v: the used model reads %d exact cycles and %d L1 lookups, the cold one %d and %d",
				usedFirst, exact[true].Cycles, exact[true].Mem.L1Lookups, exact[false].Cycles, exact[false].Mem.L1Lookups)
		}
	}
}

// TestSampleSpecParallelismValidate: negative worker counts are rejected,
// and the recorded Sampled.Spec never carries the knob.
func TestSampleSpecParallelismValidate(t *testing.T) {
	bad := cpu.SampleSpec{Period: 1000, Warmup: 100, Interval: 100, Parallelism: -1}
	if err := bad.Validate(); err == nil {
		t.Error("negative parallelism passed validation")
	}
	tr := captureKernel(t, "idct", isa.ExtMOM)
	spec := parTestSpec
	spec.Parallelism = 4
	res, err := cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewPerfect(1)).RunSampled(tr.Reader(), 50_000_000, spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampled.Spec.Parallelism != 0 {
		t.Errorf("recorded spec carries parallelism %d, want 0", res.Sampled.Spec.Parallelism)
	}
}

// TestSweepCheckpoints: the phase-1 sweep covers the whole stream, logs
// every window, and reports a plausible footprint.
func TestSweepCheckpoints(t *testing.T) {
	tr := captureKernel(t, "idct", isa.ExtMOM)
	sim := cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
	st, err := sim.SweepCheckpoints(tr, 50_000_000, parTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != tr.Records() {
		t.Errorf("sweep covered %d insts, trace has %d", st.Insts, tr.Records())
	}
	p := parTestSpec.Period
	if want := int((tr.Records() + p - 1) / p); st.Windows != want {
		t.Errorf("sweep logged %d windows for %d records (period %d), want %d", st.Windows, tr.Records(), p, want)
	}
	if st.LogBytes <= 0 {
		t.Errorf("non-positive log footprint %d", st.LogBytes)
	}
}
