package mom

// The trace artifact layer persists captured traces on disk so process
// restarts, CLI invocations and CI runs replay instead of re-emulating —
// the disk extension of the capture-once/replay-many methodology. Artifacts
// live in their own content-addressed store.Store (same atomic-write, LRU
// and corruption-reads-as-miss machinery as the result store, but a
// separate instance, so trace blobs and result documents never compete for
// one byte budget) keyed by (workload, ISA, scale, trace-format version).
// The layer is pure optimisation: a missing, damaged or version-skewed
// artifact reads as a miss and the workload is recaptured.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"sync/atomic"

	"repro/internal/isa"
	"repro/internal/store"
	"repro/internal/trace"
)

var artifactStore atomic.Pointer[store.Store]

var (
	traceDiskHits    = traceMetrics.Counter("trace_disk_hits_total", "Traces materialised from a local disk artifact.")
	traceDiskMisses  = traceMetrics.Counter("trace_disk_misses_total", "Artifact lookups that found nothing usable locally.")
	traceDiskWrites  = traceMetrics.Counter("trace_disk_writes_total", "Traces persisted to the local artifact store.")
	tracePeerFetches = traceMetrics.Counter("trace_fetches_total", "Traces filled from a peer's artifact store.")
)

// SetTraceArtifacts installs s as the process-wide trace artifact store
// consulted (and written through) by the trace cache; nil uninstalls it.
// Like the trace cache itself, the artifact store is process-global: every
// experiment driver in the process shares one fill path.
func SetTraceArtifacts(s *store.Store) { artifactStore.Store(s) }

// TraceArtifacts returns the installed artifact store, if any.
func TraceArtifacts() *store.Store { return artifactStore.Load() }

// OpenTraceArtifacts opens (or creates) a trace artifact store rooted at
// dir, bounded to maxBytes on disk (<= 0 disables the bound), and installs
// it process-wide.
func OpenTraceArtifacts(dir string, maxBytes int64) (*store.Store, error) {
	s, err := store.Open(dir, maxBytes)
	if err != nil {
		return nil, err
	}
	SetTraceArtifacts(s)
	return s, nil
}

// TraceArtifactStats reports the artifact store's counters; ok is false
// when no store is installed.
func TraceArtifactStats() (store.Stats, bool) {
	s := artifactStore.Load()
	if s == nil {
		return store.Stats{}, false
	}
	return s.Stats(), true
}

// TraceFetcher obtains a trace artifact's encoded bytes for a content
// address from somewhere other than the local disk — momserved installs one
// that asks the key's cluster owner over HTTP. ok=false means unavailable;
// the returned reader's bytes are verified by the artifact decoder, so a
// lying peer costs a recapture, never a wrong result.
type TraceFetcher func(key string) (rc io.ReadCloser, ok bool)

var traceFetcher atomic.Pointer[TraceFetcher]

// SetTraceFetcher installs the process-wide artifact fetcher consulted when
// the local artifact store misses; nil uninstalls it.
func SetTraceFetcher(f TraceFetcher) {
	if f == nil {
		traceFetcher.Store(nil)
		return
	}
	traceFetcher.Store(&f)
}

// traceArtifactDoc is the canonical JSON preimage of an artifact content
// address. The format version is part of the key, so an encoding change
// misses on every old artifact instead of misreading old bytes; width,
// cache mode and memory model are deliberately absent — a dynamic trace
// depends only on (workload, ISA, scale).
type traceArtifactDoc struct {
	Format int    `json:"format"`
	Kind   string `json:"kind"` // "kernel" or "app"
	Name   string `json:"name"`
	ISA    string `json:"isa"`
	Scale  string `json:"scale"`
}

// TraceArtifactKey returns the content address a workload's trace artifact
// is stored under.
func TraceArtifactKey(app bool, name string, i ISA, sc Scale) string {
	kind := "kernel"
	if app {
		kind = "app"
	}
	scale := "test"
	if sc == ScaleBench {
		scale = "bench"
	}
	doc, err := json.Marshal(traceArtifactDoc{
		Format: trace.FormatVersion, Kind: kind, Name: name, ISA: i.String(), Scale: scale,
	})
	if err != nil {
		panic("mom: trace artifact doc: " + err.Error()) // fixed shape; cannot fail
	}
	sum := sha256.Sum256(doc)
	return hex.EncodeToString(sum[:])
}

func (k traceKey) artifactKey() string {
	return TraceArtifactKey(k.app, k.name, k.isa, k.scale)
}

// loadArtifact fills one empty RAM-cache slot from the artifact layer:
// local disk first, then the peer fetcher. A fetched artifact is written
// through to the local store so the next restart finds it on disk. It
// returns nil on a miss; a damaged local artifact is dropped and counts as
// a miss.
func loadArtifact(key traceKey, prog *isa.Program) *trace.Trace {
	st := artifactStore.Load()
	f := traceFetcher.Load()
	if st == nil && f == nil {
		return nil
	}
	akey := key.artifactKey()
	if st != nil {
		if rc, _, ok := st.GetStream(akey); ok {
			tr, err := trace.Decode(rc, prog)
			rc.Close()
			if err == nil {
				traceDiskHits.Inc()
				return tr
			}
			st.Invalidate(akey) // corrupt artifact: drop it, fall through to refetch
		}
		traceDiskMisses.Inc()
	}
	if f != nil {
		if rc, ok := (*f)(akey); ok {
			tr, err := trace.Decode(rc, prog)
			rc.Close()
			if err == nil {
				tracePeerFetches.Inc()
				if st != nil {
					saveArtifact(akey, tr, st.Fill)
				}
				return tr
			}
		}
	}
	return nil
}

// saveArtifact writes a trace through to the artifact store with write:
// Put for a fresh capture, Fill (no overwrite) for a peer-fetched one. Best
// effort, like every store write: a failure only costs a future recapture.
func saveArtifact(akey string, tr *trace.Trace, write func(key string, val []byte) error) {
	buf := bytes.NewBuffer(make([]byte, 0, tr.EncodedSize()))
	if _, err := tr.WriteTo(buf); err != nil {
		return
	}
	if write(akey, buf.Bytes()) == nil {
		traceDiskWrites.Inc()
	}
}
