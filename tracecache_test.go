package mom

import (
	"context"
	"sync"
	"testing"

	"repro/internal/trace"
)

// cachedTrace is workloadTrace for tests that only check whether a trace
// came back.
func cachedTrace(key traceKey) *trace.Trace {
	tr, _ := workloadTrace(key)
	return tr
}

// resetTraceEntry removes a cache slot (and its bytes) so a test can
// exercise the fill path from a known-empty state.
func resetTraceEntry(t testing.TB, key traceKey) {
	t.Helper()
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	e, ok := traceCache.entries[key]
	if !ok {
		return
	}
	if e.tr == nil {
		t.Fatalf("trace entry %v has a fill in flight", key)
	}
	traceCache.bytes -= e.tr.Bytes()
	delete(traceCache.entries, key)
}

// TestTraceConcurrentAcquireCapturesOnce: many goroutines acquiring one
// uncached workload at once share a single fill — exactly one capture —
// and all receive the same trace instance.
func TestTraceConcurrentAcquireCapturesOnce(t *testing.T) {
	key := traceKey{name: "motion2", isa: MMX, scale: ScaleTest}
	resetTraceEntry(t, key)
	base := ReadTraceStats()

	const n = 16
	got := make([]*trace.Trace, n)
	errs := make([]error, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			got[w], errs[w] = workloadTrace(key)
		}(w)
	}
	close(start)
	wg.Wait()
	for w := 0; w < n; w++ {
		if errs[w] != nil {
			t.Fatalf("goroutine %d: %v", w, errs[w])
		}
		if got[w] == nil || got[w] != got[0] {
			t.Fatalf("goroutine %d got trace %p, goroutine 0 got %p", w, got[w], got[0])
		}
	}
	if c := ReadTraceStats().Captures - base.Captures; c != 1 {
		t.Fatalf("%d concurrent acquires ran %d captures, want 1", n, c)
	}
}

// TestTraceUnknownWorkloadLeavesNoSlot: a workload that cannot be traced
// fails every entry point with an error (CaptureWorkloadTrace with nil),
// runs nothing live, counts no capture and leaves no cache slot behind.
func TestTraceUnknownWorkloadLeavesNoSlot(t *testing.T) {
	base := ReadTraceStats()
	for _, sp := range []SampleSpec{{}, DefaultSampleSpec} {
		if _, err := RunKernelSampled("nope", MOM, 4, PerfectMemory(1), ScaleTest, sp); err == nil {
			t.Errorf("RunKernelSampled(spec %q) of an unknown kernel succeeded", sp)
		}
	}
	if _, err := RegisterSweep(context.Background(), ScaleTest, "nope"); err == nil {
		t.Error("RegisterSweep of an unknown kernel succeeded")
	}
	if tr := CaptureWorkloadTrace(true, "nope", MOM, ScaleTest); tr != nil {
		t.Error("CaptureWorkloadTrace of an unknown app returned a trace")
	}

	traceCache.mu.Lock()
	for key := range traceCache.entries {
		if key.name == "nope" {
			t.Errorf("failed fill left slot %+v behind", key)
		}
	}
	traceCache.mu.Unlock()
	st := ReadTraceStats()
	if l := st.LiveRuns - base.LiveRuns; l != 0 {
		t.Errorf("unknown workload ran %d live runs", l)
	}
	if c := st.Captures - base.Captures; c != 0 {
		t.Errorf("unknown workload counted %d captures", c)
	}
}
