package cpu

import (
	"fmt"
	"reflect"
	"slices"
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

// rolledSweep is a sweep's long-lived state rolled forward through its log
// window by window, as a block rolls its state: a hierarchy and run state
// that started cold, and the window whose start they hold.
type rolledSweep struct {
	lg *sweepLog
	h  *mem.Hierarchy
	rs *runState
	at int
}

// to rolls the state forward to window k's start, k >= r.at.
func (r *rolledSweep) to(k int) {
	for ; r.at < k; r.at++ {
		r.lg.apply(r.at, r.rs, r.h)
	}
}

// sameState fails t unless a serial run's long-lived state at window k's
// start (h, rs) matches the sweep's there (sw): the same tag-array lines and
// dirty bits in the same per-set LRU order, and the same predictor counters
// and BTB tags.
func sameState(t *testing.T, what string, k int, h *mem.Hierarchy, rs *runState, sw *rolledSweep) {
	t.Helper()
	want, got := sw.h.SnapshotTags(), h.SnapshotTags()
	if d := sameTags(got.L1, want.L1); d != "" {
		t.Fatalf("%s window %d: L1 differs from the sweep's: %s", what, k, d)
	}
	if d := sameTags(got.L2, want.L2); d != "" {
		t.Fatalf("%s window %d: L2 differs from the sweep's: %s", what, k, d)
	}
	for i := range rs.pred.ctr {
		if rs.pred.ctr[i] != sw.rs.pred.ctr[i] {
			t.Fatalf("%s window %d: predictor counter %d is %d, the sweep's %d", what, k, i, rs.pred.ctr[i], sw.rs.pred.ctr[i])
		}
	}
	for i := range rs.targets.tag {
		if rs.targets.tag[i] != sw.rs.targets.tag[i] {
			t.Fatalf("%s window %d: BTB tag %d is %d, the sweep's %d", what, k, i, rs.targets.tag[i], sw.rs.targets.tag[i])
		}
	}
}

// TestSweepMatchesSerial pins the invariant the sweep log relies on: at
// every window start of a serial sampled run, the long-lived state equals
// the sweep's — the same tag-array lines and dirty bits in the same per-set
// LRU order, and the same predictor counters and BTB tags — for every
// application under each Figure 7 configuration at both widths, at
// DefaultSampleSpec. Absolute LRU stamps may differ: a store the write
// buffer coalesces skips the L2 touch that warming makes. Both sides start
// cold. Two passes read the trace two ways. The first probes every window
// start of one serial run, through windowProbe, which is not a
// *trace.Reader, so its spans ask for exact record counts. The second runs
// plain readers, which read whole chunk tails and seek back, as production
// serial runs do: each run stops at window k's start (maxInsts k·Period),
// right after warming the skip span before it, for k = 1, 2, the middle
// window, the last window and the first window after every chunk boundary.
func TestSweepMatchesSerial(t *testing.T) {
	spec := SampleSpec{Period: 1501, Warmup: 100, Interval: 150}
	p := spec.Period
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
	checked := 0 // window starts compared on the chunk-tail path
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
				cfg := NewConfig(width, c.ext)
				hier := func() *mem.Hierarchy { return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: c.mode}) }
				lg := New(cfg, hier()).sweep(tr, statics, all, spec)
				nw := len(lg.windows)
				rolled := func() *rolledSweep { return &rolledSweep{lg: lg, h: hier(), rs: acquireState(&cfg)} }

				// Every window start, on the exact-ask read path.
				sw := rolled()
				serial := New(cfg, hier())
				rs := acquireState(&serial.Cfg)
				probe := &windowProbe{Reader: tr.Reader(), period: p}
				probe.at = func(k uint64) {
					if k >= uint64(nw) {
						return // an empty window at the very end of the trace
					}
					sw.to(int(k))
					sameState(t, what, int(k), serial.Mem.(*mem.Hierarchy), rs, sw)
				}
				var w windows
				if err := serial.runWindows(rs, probe, statics, all, spec, 0, nil, nil, &w); err != nil {
					t.Fatal(err)
				}
				if probe.next < uint64(nw) {
					t.Errorf("%s: compared %d window starts of %d", what, probe.next, nw)
				}
				releaseState(rs)
				releaseState(sw.rs)

				// Chosen window starts, on the chunk-tail read path.
				ks := []int{1, 2, nw / 2, nw - 1}
				for c := uint64(traceChunk); c < tr.Records(); c += traceChunk {
					ks = append(ks, int((c+p-1)/p))
				}
				slices.Sort(ks)
				sw = rolled()
				for _, k := range slices.Compact(ks) {
					if k < 1 || k >= nw {
						continue
					}
					serial := New(cfg, hier())
					rs := acquireState(&serial.Cfg)
					var w windows
					if err := serial.runWindows(rs, tr.Reader(), statics, uint64(k)*p, spec, 0, nil, nil, &w); err != nil {
						t.Fatal(err)
					}
					if rs.idx != uint64(k)*p {
						t.Fatalf("%s: the run cut at window %d stopped at record %d", what, k, rs.idx)
					}
					sw.to(k)
					sameState(t, what+" (chunk tails)", k, serial.Mem.(*mem.Hierarchy), rs, sw)
					releaseState(rs)
					checked++
				}
				releaseState(sw.rs)
			}
		}
	}
	t.Logf("compared %d window starts on the chunk-tail path", checked)
}

// TestParallelClonesPerWorker: a fresh parallel run builds one hierarchy
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
	var built atomic.Int32
	newMem := func(m mem.Model) mem.Model {
		built.Add(1)
		return coldModel(m)
	}
	par, err := New(NewConfig(4, isa.ExtMOM), hier()).runSampledParallel(tr, tr.Records(), spec, newMem)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par, serial) {
		t.Errorf("parallel run differs from the serial one:\n%+v\nvs\n%+v", par, serial)
	}
	if n := built.Load(); n != 2 {
		t.Errorf("a 2-worker run built %d hierarchies, want 2", n)
	}
}
