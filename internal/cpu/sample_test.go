package cpu_test

// Tests for the cpu-level sampled-simulation engine: spec validation, the
// profile telescoping identity over aggregated windows, determinism, and
// the equivalence of sampled runs over a recorded trace and over the live
// emulator.

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
)

func TestSampleSpecValidate(t *testing.T) {
	cases := []struct {
		spec cpu.SampleSpec
		ok   bool
	}{
		{cpu.SampleSpec{}, true},             // disabled
		{cpu.SampleSpec{Period: 100}, false}, // period without interval
		{cpu.SampleSpec{Warmup: 10}, false},  // warmup without interval
		{cpu.SampleSpec{Period: 1000, Warmup: 100, Interval: 100}, true},
		{cpu.SampleSpec{Period: 200, Warmup: 100, Interval: 100}, false},    // nothing left to skip
		{cpu.SampleSpec{Period: 50, Interval: 100}, false},                  // interval exceeds period
		{cpu.SampleSpec{Period: 5, Warmup: ^uint64(0), Interval: 2}, false}, // warmup + interval wraps around
		{cpu.SampleSpec{Period: 5, Warmup: 1, Interval: ^uint64(0)}, false},
	}
	for _, c := range cases {
		err := c.spec.Validate()
		if c.ok && err != nil {
			t.Errorf("%+v: unexpected error %v", c.spec, err)
		}
		if !c.ok && err == nil {
			t.Errorf("%+v: validation passed, want error", c.spec)
		}
	}
}

// capture records one test kernel for the sampled-path tests.
func captureKernel(t *testing.T, name string, ext isa.Ext) *trace.Trace {
	t.Helper()
	k, err := kernels.ByName(name, kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(emu.New(k.Build(ext)), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// captureApp records one test-scale application.
func captureApp(t *testing.T, name string, ext isa.Ext) *trace.Trace {
	t.Helper()
	a, err := apps.ByName(name, apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(emu.New(a.Build(ext)), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

var testSpec = cpu.SampleSpec{Period: 700, Warmup: 60, Interval: 100}

// TestSampledProfileIdentity: the aggregated measured-interval profile must
// telescope exactly like an exact run's — Profile.Total() == Cycles — and
// the Sampled block must partition the stream.
func TestSampledProfileIdentity(t *testing.T) {
	for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMOM} {
		tr := captureKernel(t, "idct", ext)
		sim := cpu.New(cpu.NewConfig(4, ext), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
		res, err := sim.RunSampled(tr.Reader(), 50_000_000, testSpec)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sampled == nil {
			t.Fatal("no Sampled block")
		}
		if res.Sampled.Intervals == 0 {
			t.Fatal("no measured intervals")
		}
		if got := res.Profile.Total(); got != res.Cycles {
			t.Errorf("%v: profile total %d != cycles %d", ext, got, res.Cycles)
		}
		s := res.Sampled
		if s.MeasuredInsts+s.WarmupInsts+s.SkippedInsts != s.TotalInsts {
			t.Errorf("%v: measured %d + warmup %d + skipped %d != total %d",
				ext, s.MeasuredInsts, s.WarmupInsts, s.SkippedInsts, s.TotalInsts)
		}
		if s.TotalInsts != tr.Records() {
			t.Errorf("%v: total %d insts, trace has %d", ext, s.TotalInsts, tr.Records())
		}
		if res.Insts != s.MeasuredInsts {
			t.Errorf("%v: result insts %d != measured %d", ext, res.Insts, s.MeasuredInsts)
		}
	}
}

// TestSampledDisabledIsRun: a disabled spec must be Run, field for field.
func TestSampledDisabledIsRun(t *testing.T) {
	tr := captureKernel(t, "motion1", isa.ExtMOM)
	mk := func() *cpu.Sim {
		return cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
	}
	exact, err := mk().Run(tr.Reader(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	via, err := mk().RunSampled(tr.Reader(), 50_000_000, cpu.SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, via) {
		t.Errorf("disabled RunSampled differs from Run:\n%+v\nvs\n%+v", via, exact)
	}
}

// TestSampledWarmPathsAgree: detailed spans and functional warming both
// read NextBatch, which a recorded trace answers with chunk-tail views and
// a live emulator with 256-record batches. Where a source cuts its batches
// must not change what is simulated or warmed, so sampled runs over the
// two sources agree field for field.
func TestSampledWarmPathsAgree(t *testing.T) {
	for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMOM} {
		k, err := kernels.ByName("idct", kernels.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		tr := captureKernel(t, "idct", ext)
		mk := func() *cpu.Sim {
			return cpu.New(cpu.NewConfig(4, ext), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
		}
		bulk, err := mk().RunSampled(tr.Reader(), 50_000_000, testSpec)
		if err != nil {
			t.Fatal(err)
		}
		generic, err := mk().RunSampled(trace.NewLive(emu.New(k.Build(ext))), 50_000_000, testSpec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(bulk, generic) {
			t.Errorf("%v: bulk-warm and generic-warm sampled runs differ:\n%+v\nvs\n%+v", ext, bulk, generic)
		}
	}
}

// TestSampledDeterministic: two sampled replays of one trace are identical.
func TestSampledDeterministic(t *testing.T) {
	tr := captureKernel(t, "idct", isa.ExtMOM)
	mk := func() *cpu.Sim {
		return cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
	}
	a, err := mk().RunSampled(tr.Reader(), 50_000_000, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk().RunSampled(tr.Reader(), 50_000_000, testSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("two sampled replays differ:\n%+v\nvs\n%+v", a, b)
	}
}
