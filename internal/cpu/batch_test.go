package cpu_test

import (
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// chunkRecords is the trace's chunk size (trace.chunkRecords): a recorded
// trace hands the core chunk tails, the live emulator 256-record batches.
const chunkRecords = 1 << 15

// TestBatchBoundaryEquivalence: the timing core must not depend on where
// its source cuts batches. mpeg2decode/MOM spans three chunks; under a
// sample spec whose period, warmup and interval do not divide the chunk
// size, RunSampled over the live emulator must equal RunSampled over the
// recorded trace field for field, serially and on 4 workers, and an exact
// Run that stops mid-chunk must agree too and leave the reader there.
func TestBatchBoundaryEquivalence(t *testing.T) {
	a, err := apps.ByName("mpeg2decode", apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	live := func() trace.Source { return trace.NewLive(emu.New(a.Build(isa.ExtMOM))) }
	tr, err := trace.Capture(emu.New(a.Build(isa.ExtMOM)), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Chunks() < 3 {
		t.Fatalf("trace has %d chunks, want 3 or more", tr.Chunks())
	}
	newSim := func() *cpu.Sim {
		return cpu.New(cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
	}
	const all = 1 << 40

	for _, workers := range []int{1, 4} {
		spec := cpu.SampleSpec{Period: 3001, Warmup: 77, Interval: 123, Parallelism: workers}
		want, err := newSim().RunSampled(live(), all, spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := newSim().RunSampled(tr.Reader(), all, spec)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sampled on %d workers: replay diverges from live\nlive:   %+v %+v\nreplay: %+v %+v",
				workers, want, *want.Sampled, got, *got.Sampled)
		}
	}

	for _, maxInsts := range []uint64{chunkRecords + 12345, all} {
		want, err := newSim().Run(live(), maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		rd := tr.Reader()
		got, err := newSim().Run(rd, maxInsts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("exact run of %d: replay diverges from live\nlive:   %+v\nreplay: %+v", maxInsts, want, got)
		}
		if wantPos := min(maxInsts, tr.Records()); rd.Pos() != wantPos {
			t.Errorf("exact run of %d left the reader at %d, want %d", maxInsts, rd.Pos(), wantPos)
		}
	}
}
