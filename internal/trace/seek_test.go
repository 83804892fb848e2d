package trace

// Reader.Trace hands back the recording a reader replays, so a consumer
// handed a reader can open further cursors over the same trace.

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

func captureTestTrace(t *testing.T) *Trace {
	t.Helper()
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(emu.New(k.Build(isa.ExtMOM)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestReaderAtTrace: the accessor hands back the underlying recording.
func TestReaderAtTrace(t *testing.T) {
	tr := captureTestTrace(t)
	if tr.Reader().Trace() != tr {
		t.Error("Reader.Trace() does not return the source trace")
	}
}
