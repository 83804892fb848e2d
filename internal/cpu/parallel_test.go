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

// parTestModels pairs each snapshot-capable memory model with an ISA whose
// code exercises it (the vector organisations need MOM vector accesses).
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
// test scale) is also cut short by maxInsts at every kind of point.
func TestParallelSampledBitIdentity(t *testing.T) {
	const all = 50_000_000
	sp := parTestSpec
	p := sp.Period
	// With 4 workers the parallel path carves min(16, windows) blocks: a
	// 36-window run is 12 blocks of 3 windows, so 36·Period ends on a block
	// boundary, while 37·Period ends on a window boundary inside a block.
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
		inputs := []struct {
			name     string
			tr       *trace.Trace
			maxInsts []uint64
		}{
			{"idct", captureKernel(t, "idct", m.ext), []uint64{all}},
			{"motion1", captureKernel(t, "motion1", m.ext), []uint64{all}},
			{"empty", empty, []uint64{all}},
			{"mpeg2decode", mpeg, append(cuts, mpeg.Records(), mpeg.Records()+1, all)},
		}
		for _, in := range inputs {
			for _, maxInsts := range in.maxInsts {
				run := func(workers int) cpu.Result {
					spec := sp
					spec.Parallelism = workers
					res, err := cpu.New(cpu.NewConfig(4, m.ext), m.mk()).RunSampled(in.tr.Reader(), maxInsts, spec)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				serial, par := run(1), run(4)
				if !reflect.DeepEqual(serial, par) {
					t.Errorf("%s/%s maxInsts %d: parallel sampled run differs from serial:\n%+v %+v\nvs\n%+v %+v",
						in.name, m.name, maxInsts, par, *par.Sampled, serial, *serial.Sampled)
				}
				if want := min(in.tr.Records(), maxInsts); serial.Sampled.TotalInsts != want {
					t.Errorf("%s/%s maxInsts %d: covered %d records, want %d",
						in.name, m.name, maxInsts, serial.Sampled.TotalInsts, want)
				}
			}
		}
	}
}

// TestParallelWorkerCountInvariance: any worker count yields the identical
// result (the reduce is ordered, not arrival-ordered).
func TestParallelWorkerCountInvariance(t *testing.T) {
	tr := captureKernel(t, "idct", isa.ExtMOM)
	run := func(workers int) cpu.Result {
		spec := parTestSpec
		spec.Parallelism = workers
		sim := cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
		res, err := sim.RunSampled(tr.Reader(), 50_000_000, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	want := run(2)
	for _, workers := range []int{3, 7, 16} {
		if got := run(workers); !reflect.DeepEqual(got, want) {
			t.Errorf("worker count %d changed the result:\n%+v\nvs\n%+v", workers, got, want)
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

// TestSweepCheckpoints: the phase-1 sweep covers the whole stream and
// reports a plausible footprint.
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
	want := int(tr.Records()/parTestSpec.Period) + 1
	if st.Checkpoints < want/2 || st.Checkpoints > want+1 {
		t.Errorf("unexpected checkpoint count %d for %d records (period %d)",
			st.Checkpoints, tr.Records(), parTestSpec.Period)
	}
	if st.SnapshotBytes <= 0 {
		t.Errorf("non-positive snapshot footprint %d", st.SnapshotBytes)
	}
}
