package cpu

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// windowProbe wraps a reader and calls at(k) when the window loop first
// reads at window k's start, k·period: runSpan opens every window with a
// NextBatch there, and warmSpan never starts a batch on a window start, so
// at sees the long-lived state each window inherits.
type windowProbe struct {
	*trace.Reader
	period uint64
	next   uint64 // the next window start to report
	at     func(k uint64)
}

func (p *windowProbe) NextBatch(max uint64) trace.Batch {
	if pos := p.Pos(); pos == p.next*p.period {
		p.at(p.next)
		p.next++
	}
	return p.Reader.NextBatch(max)
}

// sameTags reports how a and b differ in lines, dirty bits and per-set LRU
// order ("" when they agree); absolute LRU stamps are not compared.
func sameTags(a, b mem.CacheSnap) string {
	if len(a.Idx) != len(b.Idx) {
		return fmt.Sprintf("%d valid lines vs %d", len(a.Idx), len(b.Idx))
	}
	for i := range a.Idx {
		if a.Idx[i] != b.Idx[i] || a.Tags[i] != b.Tags[i] || a.Dirty[i] != b.Dirty[i] {
			return fmt.Sprintf("line %d: slot %d tag %#x dirty %v vs slot %d tag %#x dirty %v",
				i, a.Idx[i], a.Tags[i], a.Dirty[i], b.Idx[i], b.Tags[i], b.Dirty[i])
		}
		// Idx ascends, so a set's valid lines are adjacent.
		for j := i + 1; j < len(a.Idx) && int(a.Idx[j])/a.Ways == int(a.Idx[i])/a.Ways; j++ {
			if (a.LastUse[i] < a.LastUse[j]) != (b.LastUse[i] < b.LastUse[j]) {
				return fmt.Sprintf("slots %d and %d: LRU order differs", a.Idx[i], a.Idx[j])
			}
		}
	}
	return ""
}

// TestSweepMatchesSerial pins the invariant the sweep log relies on: at
// every window start of a serial sampled run, the long-lived state equals
// the sweep's — the same tag-array lines and dirty bits in the same per-set
// LRU order, and the same predictor counters and BTB tags — for every
// application under each Figure 7 configuration at both widths, at
// DefaultSampleSpec. Absolute LRU stamps may differ: a store the write
// buffer coalesces skips the L2 touch that warming makes.
func TestSweepMatchesSerial(t *testing.T) {
	spec := SampleSpec{Period: 1501, Warmup: 100, Interval: 150}
	configs := []struct {
		ext  isa.Ext
		mode mem.VectorMode
	}{
		{isa.ExtAlpha, mem.ModeConventional},
		{isa.ExtMMX, mem.ModeConventional},
		{isa.ExtMOM, mem.ModeMultiAddress},
		{isa.ExtMOM, mem.ModeVectorCache},
		{isa.ExtMOM, mem.ModeCollapsing},
	}
	const all = 1 << 40
	for _, name := range apps.Names() {
		a, err := apps.ByName(name, apps.ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		trs := map[isa.Ext]*trace.Trace{}
		for _, c := range configs {
			tr := trs[c.ext]
			if tr == nil {
				if tr, err = trace.Capture(emu.New(a.Build(c.ext)), 50_000_000, 0); err != nil {
					t.Fatal(err)
				}
				trs[c.ext] = tr
			}
			statics := staticsForTrace(tr)
			for _, width := range []int{4, 8} {
				what := fmt.Sprintf("%s/%v/%v/%d-way", name, c.ext, c.mode, width)
				hier := func() *mem.Hierarchy { return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: c.mode}) }
				sweeper := New(NewConfig(width, c.ext), hier())
				lg := sweeper.sweep(tr, statics, all, spec, sweeper.Mem.(mem.Snapshotter))

				// The sweep's state at each window start, rolled forward
				// through the log as a block does.
				swMem := hier().NewFromSnapshot(lg.start).(mem.Snapshotter)
				swRS := acquireState(&sweeper.Cfg)
				rolled := 0

				serial := New(NewConfig(width, c.ext), hier())
				rs := acquireState(&serial.Cfg)
				probe := &windowProbe{Reader: tr.Reader(), period: spec.Period}
				probe.at = func(k uint64) {
					if k >= uint64(len(lg.windows)) {
						return // an empty window at the very end of the trace
					}
					for ; rolled < int(k); rolled++ {
						lg.apply(rolled, swRS, swMem)
					}
					want, got := swMem.SnapshotTags(), serial.Mem.(mem.Snapshotter).SnapshotTags()
					if d := sameTags(got.L1, want.L1); d != "" {
						t.Fatalf("%s window %d: L1 differs from the sweep's: %s", what, k, d)
					}
					if d := sameTags(got.L2, want.L2); d != "" {
						t.Fatalf("%s window %d: L2 differs from the sweep's: %s", what, k, d)
					}
					for i := range rs.pred.ctr {
						if rs.pred.ctr[i] != swRS.pred.ctr[i] {
							t.Fatalf("%s window %d: predictor counter %d is %d, the sweep's %d", what, k, i, rs.pred.ctr[i], swRS.pred.ctr[i])
						}
					}
					for i := range rs.targets.tag {
						if rs.targets.tag[i] != swRS.targets.tag[i] {
							t.Fatalf("%s window %d: BTB tag %d is %d, the sweep's %d", what, k, i, rs.targets.tag[i], swRS.targets.tag[i])
						}
					}
				}
				var w windows
				if err := serial.runWindows(rs, probe, statics, all, spec, 0, nil, nil, &w); err != nil {
					t.Fatal(err)
				}
				if probe.next < uint64(len(lg.windows)) {
					t.Errorf("%s: compared %d window starts of %d", what, probe.next, len(lg.windows))
				}
				releaseState(rs)
				releaseState(swRS)
			}
		}
	}
}

// cloneCounter is a hierarchy's Snapshotter view that counts the clones
// made from it.
type cloneCounter struct {
	*mem.Hierarchy
	clones atomic.Int32
}

func (c *cloneCounter) NewFromSnapshot(snap *mem.TagSnapshot) mem.Model {
	c.clones.Add(1)
	return c.Hierarchy.NewFromSnapshot(snap)
}

// TestParallelClonesPerWorker: a fresh parallel run makes one memory clone
// per worker, not one per block, and still matches the serial run. Under
// DefaultSampleSpec's period mpeg2decode/MOM (test scale) has 59 windows,
// 8 blocks on 2 workers.
func TestParallelClonesPerWorker(t *testing.T) {
	a, err := apps.ByName("mpeg2decode", apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(emu.New(a.Build(isa.ExtMOM)), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := SampleSpec{Period: 1501, Warmup: 100, Interval: 150}
	hier := func() *mem.Hierarchy { return mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeCollapsing}) }
	serial, err := New(NewConfig(4, isa.ExtMOM), hier()).RunSampled(tr.Reader(), tr.Records(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Parallelism = 2
	s := New(NewConfig(4, isa.ExtMOM), hier())
	cc := &cloneCounter{Hierarchy: s.Mem.(*mem.Hierarchy)}
	par, err := s.runSampledParallel(tr, tr.Records(), spec, cc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("parallel run differs from the serial one:\n%+v\nvs\n%+v", par, serial)
	}
	if n := cc.clones.Load(); n != 2 {
		t.Errorf("a 2-worker run made %d clones, want 2", n)
	}
}
