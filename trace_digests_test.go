package mom

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/emu"
	"repro/internal/trace"
)

// traceDigestsPath is the tier-1 record of every trace encoding at
// ScaleTest: one entry per workload and ISA with the trace's record count,
// its in-memory size and the SHA-256 of its momtrace encoding. It was
// generated once and is never edited by hand; a change to the emulator or
// the capture path must leave every entry where it is, and a change that
// moves one must explain why in the change that regenerates it.
const traceDigestsPath = "testdata/trace_digests.json"

// traceDigest is one manifest entry.
type traceDigest struct {
	ID      string `json:"id"`
	Records uint64 `json:"records"`
	Bytes   int64  `json:"bytes"`
	SHA256  string `json:"sha256"`
}

// TestTraceDigests captures every test-scale workload on every ISA straight
// from the emulator, bypassing the trace cache and the artifact store, and
// compares each encoding with the manifest. On a mismatch it lists each
// moved entry and prints the regenerated manifest.
func TestTraceDigests(t *testing.T) {
	var keys []traceKey
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			keys = append(keys, traceKey{name: k, isa: i, scale: ScaleTest})
		}
	}
	for _, a := range AppNames() {
		for _, i := range AllISAs {
			keys = append(keys, traceKey{app: true, name: a, isa: i, scale: ScaleTest})
		}
	}
	var got []traceDigest
	for _, k := range keys {
		kind := "kernel"
		if k.app {
			kind = "app"
		}
		id := fmt.Sprintf("%s/%s/%s", kind, k.name, k.isa)
		prog, err := k.program()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		tr, err := trace.Capture(emu.New(prog), maxDynInsts, 0)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var enc bytes.Buffer
		if _, err := tr.WriteTo(&enc); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		got = append(got, traceDigest{ID: id, Records: tr.Records(), Bytes: tr.Bytes(), SHA256: digest(enc.Bytes())})
	}
	checkManifest(t, traceDigestsPath, got, func(d traceDigest) string { return d.ID })
}
