package cpu

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// warmSide is the long-lived state one warming walk trains.
type warmSide struct {
	pred    *bimodal
	targets *btb
	h       *mem.Hierarchy
}

// TestWarmRunsMatchStepping: warmRecords crosses a warmNone record's run of
// warmNone statics in one step. For every Figure 7 trace at test scale,
// under each Figure 7 configuration at 4-way, one walk reads the warm
// table's runs and one a copy with every run forced to 1, which steps
// record by record. Over the same random slices of each batch, both walks
// must return the same column offsets and static index after every slice,
// consume each batch's columns whole, and leave the same predictor
// counters, BTB tags and tag arrays after every batch.
func TestWarmRunsMatchStepping(t *testing.T) {
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
	rng := rand.New(rand.NewSource(1))
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
			what := name + "/" + c.ext.String() + "/" + c.mode.String()
			runs := buildWarmTable(staticsForTrace(tr))
			steps := slices.Clone(runs)
			long := 0
			for i := range steps {
				if steps[i].op == warmNone {
					steps[i].run = 1
				}
				if runs[i].run > 1 {
					long++
				}
			}
			if long == 0 {
				t.Fatalf("%s: no static starts a run of two or more warmNone statics", what)
			}
			cfg := NewConfig(4, c.ext)
			side := func() warmSide {
				return warmSide{newBimodal(cfg.BimodalSize), newBTB(cfg.BTBEntries),
					mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: c.mode})}
			}
			jump, step := side(), side()
			rd := tr.Reader()
			flow := rd.Flow()
			for n := 0; ; n++ {
				b := rd.NextBatch(math.MaxUint64)
				if len(b.Meta) == 0 {
					break
				}
				eaJ, strJ, siJ := 0, 0, b.First
				eaS, strS, siS := 0, 0, b.First
				for lo := 0; lo < len(b.Meta); {
					hi := min(len(b.Meta), lo+1+rng.Intn(2000))
					eaJ, strJ, siJ = warmRecords(b, lo, hi, eaJ, strJ, siJ, runs, flow, jump.pred, jump.targets, jump.h)
					eaS, strS, siS = warmRecords(b, lo, hi, eaS, strS, siS, steps, flow, step.pred, step.targets, step.h)
					if eaJ != eaS || strJ != strS || siJ != siS {
						t.Fatalf("%s batch %d, records [%d, %d): the runs' walk returns %d/%d/%d, stepping %d/%d/%d",
							what, n, lo, hi, eaJ, strJ, siJ, eaS, strS, siS)
					}
					lo = hi
				}
				if eaJ != len(b.EA) || strJ != len(b.Stride) {
					t.Fatalf("%s batch %d: the walk read %d/%d of the batch's %d/%d addresses and strides",
						what, n, eaJ, strJ, len(b.EA), len(b.Stride))
				}
				if !slices.Equal(jump.pred.ctr, step.pred.ctr) || !slices.Equal(jump.targets.tag, step.targets.tag) {
					t.Fatalf("%s batch %d: the predictor or the BTB differs from stepping", what, n)
				}
				if !reflect.DeepEqual(jump.h.SnapshotTags(), step.h.SnapshotTags()) {
					t.Fatalf("%s batch %d: the tag arrays differ from stepping", what, n)
				}
			}
		}
	}
}
