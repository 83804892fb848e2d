package mom

import (
	"context"
	"fmt"
	"testing"
)

// TestProfileSumsToCycles is the core identity of the attribution layer:
// for every kernel, ISA, width, and memory system, the stall buckets sum
// exactly to the cycle count, and the memory-event counters obey their own
// identities (CheckInvariants covers both).
func TestProfileSumsToCycles(t *testing.T) {
	type machine struct {
		width int
		model MemModel
	}
	var machines []machine
	for _, w := range []int{1, 2, 4, 8} {
		machines = append(machines, machine{w, PerfectMemory(1)})
	}
	machines = append(machines, machine{4, PerfectMemory(50)})
	for _, w := range []int{4, 8} {
		for _, c := range []CacheMode{Conventional, MultiAddress, VectorCache, CollapsingBuffer} {
			machines = append(machines, machine{w, DetailedMemory(c)})
		}
	}
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			k, i := k, i
			t.Run(fmt.Sprintf("%s/%s", k, i), func(t *testing.T) {
				t.Parallel()
				for _, m := range machines {
					res, err := RunKernel(k, i, m.width, m.model, ScaleTest)
					if err != nil {
						t.Fatalf("%d-way %s: %v", m.width, m.model.Name(), err)
					}
					if err := res.CheckInvariants(); err != nil {
						t.Errorf("%d-way %s: %v", m.width, m.model.Name(), err)
					}
					if res.Profile.Commit == 0 {
						t.Errorf("%d-way %s: no commit cycles in a non-empty run", m.width, m.model.Name())
					}
				}
			})
		}
	}
}

// TestProfileSumsToCyclesApps spot-checks the application path (longer
// programs with real branch behaviour) under the detailed hierarchy.
func TestProfileSumsToCyclesApps(t *testing.T) {
	apps := AppNames()
	for n, i := range AllISAs {
		a, i := apps[n%len(apps)], i
		t.Run(fmt.Sprintf("%s/%s", a, i), func(t *testing.T) {
			t.Parallel()
			for _, m := range []MemModel{PerfectMemory(1), DetailedMemory(MultiAddress)} {
				res, err := RunApp(a, i, 4, m, ScaleTest)
				if err != nil {
					t.Fatalf("%s: %v", m.Name(), err)
				}
				if err := res.CheckInvariants(); err != nil {
					t.Errorf("%s: %v", m.Name(), err)
				}
			}
		})
	}
}

// TestProfileMemWaitTracksLatency checks the taxonomy is meaningful, not
// just self-consistent: raising the idealised memory latency from 1 to 50
// cycles must grow the memory-wait share of every scalar ISA's profile.
func TestProfileMemWaitTracksLatency(t *testing.T) {
	for _, i := range []ISA{Alpha, MMX} {
		fast, err := RunKernel("motion1", i, 4, PerfectMemory(1), ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := RunKernel("motion1", i, 4, PerfectMemory(50), ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		if slow.Profile.MemWait <= fast.Profile.MemWait {
			t.Errorf("%s: MemWait did not grow with latency: %d (lat 1) vs %d (lat 50)",
				i, fast.Profile.MemWait, slow.Profile.MemWait)
		}
	}
}

// TestProfileStudyInvariants runs the experiment driver end to end: every
// row must already have passed CheckInvariants inside ProfileStudy, and the
// study must cover every kernel × ISA × both memories.
func TestProfileStudyInvariants(t *testing.T) {
	rows, err := ProfileStudy(context.Background(), ScaleTest, 4, SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want := len(KernelNames()) * len(AllISAs) * 2
	if len(rows) != want {
		t.Fatalf("got %d rows, want %d", len(rows), want)
	}
	for _, r := range rows {
		if total := r.Profile.Total(); total != r.Cycles {
			t.Errorf("%s/%s (%s): buckets sum to %d, want %d", r.Kernel, r.ISA, r.MemName, total, r.Cycles)
		}
	}
}
