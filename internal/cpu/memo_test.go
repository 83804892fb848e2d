package cpu

import (
	"reflect"
	"sync"
	"testing"

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
