package mom

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/trace"
)

// installArtifactDir opens a trace artifact store over dir and installs it
// process-wide for the duration of the test, restoring the previous store
// (and fetcher) afterwards.
func installArtifactDir(t testing.TB, dir string) *store.Store {
	t.Helper()
	prev := TraceArtifacts()
	prevF := traceFetcher.Load()
	s, err := store.Open(dir, 0)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	SetTraceArtifacts(s)
	t.Cleanup(func() {
		SetTraceArtifacts(prev)
		traceFetcher.Store(prevF)
	})
	return s
}

// artifactBytes renders a trace's artifact bytes.
func artifactBytes(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// artifactPath locates the on-disk file of one workload's artifact.
func artifactPath(t *testing.T, dir string, key traceKey) string {
	t.Helper()
	akey := key.artifactKey()
	p := filepath.Join(dir, akey[:2], akey)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("artifact for %v not on disk: %v", key, err)
	}
	return p
}

// TestArtifactWriteThroughAndWarmReload: a fresh capture is written through
// to the artifact store, and after the RAM slot is dropped (a process
// restart, as far as the trace cache can tell) the same workload fills from
// disk with zero recaptures.
func TestArtifactWriteThroughAndWarmReload(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	key := traceKey{name: "addblock", isa: Alpha, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	base := ReadTraceStats()

	// Cold: the store misses, the capture runs and writes through.
	tr := cachedTrace(key)
	if tr == nil {
		t.Fatal("cold fill returned no trace")
	}
	st1 := ReadTraceStats()
	if c := st1.Captures - base.Captures; c != 1 {
		t.Fatalf("cold fill ran %d captures, want 1", c)
	}
	if d := st1.DiskMisses - base.DiskMisses; d != 1 {
		t.Fatalf("cold fill counted %d disk misses, want 1", d)
	}
	if w := st1.DiskWrites - base.DiskWrites; w != 1 {
		t.Fatalf("cold fill wrote %d artifacts, want 1", w)
	}
	if st.Stats().Entries != 1 {
		t.Fatal("capture did not persist an artifact")
	}

	// Warm: drop the RAM slot; the artifact fills it without a capture.
	resetTraceEntry(t, key)
	tr2 := cachedTrace(key)
	if tr2 == nil {
		t.Fatal("warm fill returned no trace")
	}
	st2 := ReadTraceStats()
	if c := st2.Captures - st1.Captures; c != 0 {
		t.Fatalf("warm fill ran %d captures, want 0", c)
	}
	if h := st2.DiskHits - st1.DiskHits; h != 1 {
		t.Fatalf("warm fill counted %d disk hits, want 1", h)
	}
	if tr.Records() != tr2.Records() || tr.Bytes() != tr2.Bytes() {
		t.Fatalf("disk-filled trace shape %d/%d differs from capture %d/%d",
			tr2.Records(), tr2.Bytes(), tr.Records(), tr.Records())
	}
}

// TestArtifactReplayEquivalenceReopenedStore: replaying from an artifact
// store that was closed and reopened (a real restart: fresh Store instance
// over the same directory) is bit-identical to the fresh-capture replay,
// app x ISA.
func TestArtifactReplayEquivalenceReopenedStore(t *testing.T) {
	apps := AppNames()
	if len(apps) == 0 {
		t.Skip("no applications registered")
	}
	app := apps[0]
	dir := t.TempDir()
	for _, i := range []ISA{Alpha, MOM} {
		key := traceKey{app: true, name: app, isa: i, scale: ScaleTest}
		installArtifactDir(t, dir)
		resetTraceEntry(t, key)
		fresh, err := RunApp(app, i, 4, PerfectMemory(1), ScaleTest)
		if err != nil {
			t.Fatalf("%s/%s fresh run: %v", app, i, err)
		}
		capBase := ReadTraceStats()

		// Reopen the directory as a brand-new store and drop the RAM slot.
		installArtifactDir(t, dir)
		resetTraceEntry(t, key)
		warm, err := RunApp(app, i, 4, PerfectMemory(1), ScaleTest)
		if err != nil {
			t.Fatalf("%s/%s warm run: %v", app, i, err)
		}
		st := ReadTraceStats()
		if c := st.Captures - capBase.Captures; c != 0 {
			t.Fatalf("%s/%s: warm run recaptured (%d captures)", app, i, c)
		}
		if h := st.DiskHits - capBase.DiskHits; h != 1 {
			t.Fatalf("%s/%s: warm run counted %d disk hits, want 1", app, i, h)
		}
		if !reflect.DeepEqual(fresh, warm) {
			t.Errorf("%s/%s: disk replay diverged from fresh capture:\nfresh %+v\nwarm  %+v",
				app, i, fresh, warm)
		}
		resetTraceEntry(t, key)
	}
}

// TestArtifactCorruptionRecaptures: a damaged artifact payload reads as a
// miss — the trace is recaptured and the bad file replaced, never decoded
// into a wrong trace.
func TestArtifactCorruptionRecaptures(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	key := traceKey{name: "idct", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("cold fill returned no trace")
	}
	p := artifactPath(t, dir, key)
	blob, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0xff // damage the payload, not the store header
	if err := os.WriteFile(p, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resetTraceEntry(t, key)
	base := ReadTraceStats()
	if cachedTrace(key) == nil {
		t.Fatal("fill after corruption returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 1 {
		t.Fatalf("corrupt artifact recaptured %d times, want 1", c)
	}
	if h := stats.DiskHits - base.DiskHits; h != 0 {
		t.Fatalf("corrupt artifact counted as %d disk hits", h)
	}
	if st.Stats().Entries != 1 {
		t.Fatal("recapture did not rewrite the artifact")
	}

	// The rewritten artifact must be wholesome again.
	resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("fill from rewritten artifact failed")
	}
	if c := ReadTraceStats().Captures - stats.Captures; c != 0 {
		t.Fatalf("rewritten artifact recaptured (%d captures)", c)
	}
}

// TestArtifactFingerprintMismatchRecaptures: an artifact whose bytes encode
// a different program (here: planted under the wrong content address) fails
// fingerprint verification and reads as a miss, never as the wrong trace.
func TestArtifactFingerprintMismatchRecaptures(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	donor := traceKey{name: "addblock", isa: Alpha, scale: ScaleTest}
	victim := traceKey{name: "idct", isa: Alpha, scale: ScaleTest}
	resetTraceEntry(t, donor)
	defer resetTraceEntry(t, donor)
	tr := cachedTrace(donor)
	if tr == nil {
		t.Fatal("donor capture failed")
	}
	blob := artifactBytes(t, tr)
	if err := st.Put(victim.artifactKey(), blob); err != nil {
		t.Fatal(err)
	}

	resetTraceEntry(t, victim)
	defer resetTraceEntry(t, victim)
	base := ReadTraceStats()
	got := cachedTrace(victim)
	if got == nil {
		t.Fatal("victim fill returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 1 {
		t.Fatalf("mismatched artifact recaptured %d times, want 1", c)
	}
	if h := stats.DiskHits - base.DiskHits; h != 0 {
		t.Fatalf("mismatched artifact counted as %d disk hits", h)
	}
	if got.Records() == tr.Records() && got.Bytes() == tr.Bytes() {
		t.Fatal("victim fill appears to have adopted the donor trace")
	}
}

// TestArtifactKeySeparation: the content address separates workload kind,
// name, ISA, scale and format version — no two distinct workloads share an
// artifact.
func TestArtifactKeySeparation(t *testing.T) {
	keys := map[string]string{
		"kernel": TraceArtifactKey(false, "idct", Alpha, ScaleTest),
		"app":    TraceArtifactKey(true, "idct", Alpha, ScaleTest),
		"name":   TraceArtifactKey(false, "addblock", Alpha, ScaleTest),
		"isa":    TraceArtifactKey(false, "idct", MOM, ScaleTest),
		"scale":  TraceArtifactKey(false, "idct", Alpha, ScaleBench),
	}
	seen := map[string]string{}
	for dim, k := range keys {
		if len(k) != 64 {
			t.Fatalf("%s key %q is not a content address", dim, k)
		}
		if prev, ok := seen[k]; ok {
			t.Fatalf("keys for %s and %s collide", dim, prev)
		}
		seen[k] = dim
	}
}

// TestArtifactConcurrentFill: many goroutines requesting a disk-resident
// trace through an empty RAM slot perform exactly one artifact decode —
// the slot's single-flight covers the disk path like it covers captures.
func TestArtifactConcurrentFill(t *testing.T) {
	dir := t.TempDir()
	installArtifactDir(t, dir)
	key := traceKey{name: "rgb2ycc", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("cold fill returned no trace")
	}
	resetTraceEntry(t, key)
	base := ReadTraceStats()

	const n = 16
	got := make([]*trace.Trace, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = cachedTrace(key)
		}(w)
	}
	wg.Wait()
	for w := 1; w < n; w++ {
		if got[w] != got[0] {
			t.Fatalf("goroutine %d got a different trace instance", w)
		}
	}
	if got[0] == nil {
		t.Fatal("concurrent fill returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 0 {
		t.Fatalf("concurrent disk fill ran %d captures", c)
	}
	if h := stats.DiskHits - base.DiskHits; h != 1 {
		t.Fatalf("concurrent disk fill decoded the artifact %d times, want 1", h)
	}
}

// TestArtifactPeerFetcher: when the local artifact store misses, the
// installed fetcher is consulted and a fetched artifact is decoded,
// verified and written through to the local store.
func TestArtifactPeerFetcher(t *testing.T) {
	dir := t.TempDir()
	st := installArtifactDir(t, dir)
	key := traceKey{name: "h2v2upsample", isa: MOM, scale: ScaleTest}
	resetTraceEntry(t, key)
	defer resetTraceEntry(t, key)
	tr := cachedTrace(key)
	if tr == nil {
		t.Fatal("donor capture failed")
	}
	blob := artifactBytes(t, tr)

	// Simulate a restart with an empty local store but a peer that has the
	// artifact: the fetcher serves the encoded bytes.
	st.Invalidate(key.artifactKey())
	resetTraceEntry(t, key)
	var asked []string
	SetTraceFetcher(func(k string) (io.ReadCloser, bool) {
		asked = append(asked, k)
		if k != key.artifactKey() {
			return nil, false
		}
		return io.NopCloser(bytes.NewReader(blob)), true
	})
	defer SetTraceFetcher(nil)
	base := ReadTraceStats()

	got := cachedTrace(key)
	if got == nil {
		t.Fatal("fetcher-backed fill returned no trace")
	}
	stats := ReadTraceStats()
	if c := stats.Captures - base.Captures; c != 0 {
		t.Fatalf("fetcher-backed fill ran %d captures, want 0", c)
	}
	if p := stats.PeerFetches - base.PeerFetches; p != 1 {
		t.Fatalf("fill counted %d peer fetches, want 1", p)
	}
	if len(asked) != 1 || asked[0] != key.artifactKey() {
		t.Fatalf("fetcher asked for %v, want exactly the artifact key", asked)
	}
	if got.Records() != tr.Records() || got.Bytes() != tr.Bytes() {
		t.Fatal("fetched trace shape differs from the donor")
	}
	// Write-through: the next restart finds the artifact locally.
	if st.Stats().Entries != 1 {
		t.Fatal("fetched artifact was not persisted locally")
	}
	resetTraceEntry(t, key)
	if cachedTrace(key) == nil {
		t.Fatal("fill from the written-through artifact failed")
	}
	if h := ReadTraceStats().DiskHits - stats.DiskHits; h != 1 {
		t.Fatalf("written-through artifact counted %d disk hits, want 1", h)
	}
}
