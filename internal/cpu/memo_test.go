package cpu

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
)

// TestCkptMemoBounded: a trace keeps at most maxCkptLibraries checkpoint
// libraries, evicting the oldest. Nine distinct sample specs — the last
// eight run concurrently, as a server would — leave eight libraries
// without the first spec's, and rerunning the evicted spec sweeps again
// and returns a bit-identical Result.
func TestCkptMemoBounded(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(emu.New(k.Build(isa.ExtAlpha)), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := func(i int) SampleSpec {
		return SampleSpec{Period: 1800 + 37*uint64(i), Warmup: 60, Interval: 100, Parallelism: 2}
	}
	run := func(i int) (Result, error) {
		sim := New(NewConfig(4, isa.ExtAlpha), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeConventional}))
		return sim.RunSampled(tr.Reader(), 1<<40, spec(i))
	}

	first, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	const specs = maxCkptLibraries + 1
	var wg sync.WaitGroup
	errs := make([]error, specs)
	for i := 1; i < specs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	memo := ckptMemoFor(tr)
	periods := func() map[uint64]bool {
		memo.mu.Lock()
		defer memo.mu.Unlock()
		ps := make(map[uint64]bool)
		for _, e := range memo.libs {
			if ps[e.key.period] {
				t.Fatalf("memo holds two libraries for period %d", e.key.period)
			}
			ps[e.key.period] = true
		}
		return ps
	}
	ps := periods()
	if len(ps) != maxCkptLibraries {
		t.Fatalf("%d specs left %d libraries, want %d", specs, len(ps), maxCkptLibraries)
	}
	if ps[spec(0).Period] {
		t.Fatal("the oldest library survived past the cap")
	}

	again, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, first) {
		t.Errorf("rerun of the evicted spec diverges\nfirst: %+v %+v\nagain: %+v %+v", first, *first.Sampled, again, *again.Sampled)
	}
	if ps := periods(); len(ps) != maxCkptLibraries || !ps[spec(0).Period] {
		t.Errorf("after the rerun the memo holds %d libraries (evicted spec present: %v)", len(ps), ps[spec(0).Period])
	}
}

// TestParallelPerfectLogsNoTags: perfect memory has no tag arrays, so its
// sweep log carries the predictor and BTB deltas alone, and one log serves
// both latencies (ckptKey names the model "perfect" at each). A 4-worker
// run at latency 1 and then at latency 50 each equals its serial run, and
// the trace holds one library, whose windows list no tag slot.
func TestParallelPerfectLogsNoTags(t *testing.T) {
	a, err := apps.ByName("mpeg2decode", apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Capture(emu.New(a.Build(isa.ExtMOM)), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, lat := range []int{1, 50} {
		run := func(workers int) Result {
			spec := SampleSpec{Period: 1501, Warmup: 100, Interval: 150, Parallelism: workers}
			res, err := New(NewConfig(4, isa.ExtMOM), mem.NewPerfect(lat)).RunSampled(tr.Reader(), 1<<40, spec)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		if serial, par := run(1), run(4); !reflect.DeepEqual(par, serial) {
			t.Errorf("latency %d: 4-worker perfect-memory run differs from the serial one:\n%+v\nvs\n%+v", lat, par, serial)
		}
	}
	libs := ckptMemoFor(tr).libs
	if len(libs) != 1 {
		t.Fatalf("the trace holds %d checkpoint libraries, want 1", len(libs))
	}
	var empty mem.TagDelta
	br := 0
	for i, w := range libs[0].log.windows {
		if w.tags.Bytes() != empty.Bytes() {
			t.Fatalf("window %d logs a %d-byte tag delta on perfect memory", i, w.tags.Bytes())
		}
		br += len(w.br)
	}
	if br == 0 {
		t.Error("the log lists no predictor or BTB entry")
	}
}
