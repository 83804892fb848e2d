package mom

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/metric"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/trace"
)

// The process-wide trace cache implements the capture-once / replay-many
// methodology of the paper (ATOM instruments the binary once, the trace
// feeds Jinks for every machine configuration). A dynamic trace depends
// only on (workload, ISA, scale) — never on issue width, cache mode or
// memory latency — so every timing run of a registered workload replays
// its recording: the trace is acquired once per process and replayed
// across every machine configuration, in parallel where the driver fans
// out. Replay is checked field for field against live emulation by
// TestTraceReplayEquivalence.
//
// The cache holds every trace it fills for the life of the process and
// needs no byte budget: its key space is finite (8 kernels and 5 apps × 4
// ISAs × 2 scales = 104 traces, 88.4 MB by Trace.Bytes in total).

// TraceStats reports the accumulated activity of the trace layer, a view of
// the series in TraceMetrics.
type TraceStats struct {
	Captures     int64         // traces recorded by a fresh capture
	CaptureTime  time.Duration // wall-clock spent in those captures
	Replays      int64         // timing runs fed from a recorded trace
	ReplayTime   time.Duration // wall-clock spent in those timing runs
	CachedTraces int64         // traces currently held
	CachedBytes  int64         // bytes currently held

	// LiveRuns always reads zero: every timing run replays its trace. It is
	// kept because the perfbench live-fallback guard still reads it.
	LiveRuns int64

	// The disk artifact layer (zero when no artifact store is installed).
	DiskHits    int64 // traces materialised from a local disk artifact
	DiskMisses  int64 // artifact lookups that found nothing usable locally
	DiskWrites  int64 // traces persisted to the local artifact store
	PeerFetches int64 // traces fetched from a peer's artifact store
}

var traceMetrics metric.Set

// TraceMetrics returns the trace layer's series: what momserver's /metrics
// exposes with a momserved_ prefix and momsim -v prints per experiment.
func TraceMetrics() *metric.Set { return &traceMetrics }

var (
	traceCaptures    = traceMetrics.Counter("trace_captures_total", "Workload traces recorded.")
	traceReplays     = traceMetrics.Counter("trace_replays_total", "Timing runs fed from a recorded trace.")
	traceCaptureTime = traceMetrics.Seconds("trace_capture_seconds_total", "Wall-clock spent capturing traces.")
	traceReplayTime  = traceMetrics.Seconds("trace_replay_seconds_total", "Wall-clock spent in trace-fed timing runs.")
)

func init() {
	traceMetrics.Gauge("trace_cached_traces", "Traces currently held in memory.", func() int64 { n, _ := cacheHeld(); return n })
	traceMetrics.Gauge("trace_cached_bytes", "Bytes the traces held in memory occupy (Trace.Bytes: their meta, address and stride columns).", func() int64 { _, b := cacheHeld(); return b })
}

// cacheHeld returns the number and bytes of the traces the cache holds.
func cacheHeld() (traces, bytes int64) {
	traceCache.mu.Lock()
	defer traceCache.mu.Unlock()
	for _, e := range traceCache.entries {
		if e.tr != nil {
			traces++
		}
	}
	return traces, traceCache.bytes
}

// ReadTraceStats returns a snapshot of the trace-layer counters.
func ReadTraceStats() TraceStats {
	held, bytes := cacheHeld()
	return TraceStats{
		Captures:     traceCaptures.Load(),
		CaptureTime:  time.Duration(traceCaptureTime.Load()),
		Replays:      traceReplays.Load(),
		ReplayTime:   time.Duration(traceReplayTime.Load()),
		CachedTraces: held,
		CachedBytes:  bytes,
		DiskHits:     traceDiskHits.Load(),
		DiskMisses:   traceDiskMisses.Load(),
		DiskWrites:   traceDiskWrites.Load(),
		PeerFetches:  tracePeerFetches.Load(),
	}
}

type traceKey struct {
	app   bool
	name  string
	isa   ISA
	scale Scale
}

// program builds the workload's static program. The builders are
// deterministic, so one build serves both a capture and the fingerprint
// check of an artifact written by an earlier process.
func (k traceKey) program() (*isa.Program, error) {
	if k.app {
		return BuildApp(k.name, k.isa, k.scale)
	}
	return BuildKernel(k.name, k.isa, k.scale)
}

// traceEntry is one cache slot. done closes when its fill settles; tr and
// err are written under traceCache.mu before that.
type traceEntry struct {
	done chan struct{}
	tr   *trace.Trace
	err  error
}

var traceCache = struct {
	mu      sync.Mutex
	entries map[traceKey]*traceEntry
	bytes   int64 // bytes of the traces held
}{entries: map[traceKey]*traceEntry{}}

// workloadTrace returns the recorded trace of one workload, filling its
// slot on first use: RAM, then the artifact layer (local disk, then the
// peer fetcher), then a fresh capture written through to disk. Concurrent
// callers share one fill. A failed fill reaches every caller waiting on it
// and leaves no slot behind, so a later call tries again.
func workloadTrace(key traceKey) (*trace.Trace, error) {
	traceCache.mu.Lock()
	if e, ok := traceCache.entries[key]; ok {
		traceCache.mu.Unlock()
		<-e.done
		return e.tr, e.err
	}
	e := &traceEntry{done: make(chan struct{})}
	traceCache.entries[key] = e
	traceCache.mu.Unlock()

	tr, err := fillTrace(key)
	traceCache.mu.Lock()
	e.tr, e.err = tr, err
	if err != nil {
		delete(traceCache.entries, key)
	} else {
		traceCache.bytes += tr.Bytes()
	}
	traceCache.mu.Unlock()
	close(e.done)
	return tr, err
}

// fillTrace materialises one workload's trace from the artifact layer or,
// failing that, a fresh capture, which it writes through to disk.
func fillTrace(key traceKey) (*trace.Trace, error) {
	prog, err := key.program()
	if err != nil {
		return nil, err
	}
	if tr := loadArtifact(key, prog); tr != nil {
		return tr, nil
	}
	t0 := time.Now()
	tr, err := trace.Capture(emu.New(prog), maxDynInsts, 0)
	if err != nil {
		return nil, fmt.Errorf("mom: capture %s on %s: %w", key.name, key.isa, err)
	}
	traceCaptures.Inc()
	traceCaptureTime.Add(int64(time.Since(t0)))
	if st := artifactStore.Load(); st != nil {
		saveArtifact(key.artifactKey(), tr, st.Put)
	}
	return tr, nil
}

// replayTrace is the one timing path of a registered workload: it acquires
// the workload's trace (workloadTrace) and replays it on the machine cfg
// and model describe, sampled when sp is enabled (RunSampled with a
// disabled spec is exactly Run), with o, when non-nil, observing the
// pipeline.
func replayTrace(key traceKey, cfg cpu.Config, model mem.Model, sp SampleSpec, o obs.Observer) (cpu.Result, error) {
	tr, err := workloadTrace(key)
	if err != nil {
		return cpu.Result{}, err
	}
	sim := cpu.New(cfg, model)
	sim.Obs = o
	t0 := time.Now()
	res, err := sim.RunSampled(tr.Reader(), maxDynInsts, sp.cpu())
	traceReplays.Inc()
	traceReplayTime.Add(int64(time.Since(t0)))
	if err != nil {
		return cpu.Result{}, fmt.Errorf("mom: %s on %s/%d-way: %w", key.name, key.isa, cfg.Width, err)
	}
	return res, nil
}

// runWorkload times one workload on the Table 1 machine of the given width
// with memory model m, through replayTrace.
func runWorkload(key traceKey, width int, m MemModel, sp SampleSpec, o obs.Observer) (Result, error) {
	if err := checkWidth(width, m); err != nil {
		return Result{}, err
	}
	res, err := replayTrace(key, cpu.NewConfig(width, key.isa.ext()), m.build(width), sp, o)
	if err != nil {
		return Result{}, err
	}
	return fromCPU(key.name, key.isa, width, m.Name(), res), nil
}

// CaptureWorkloadTrace returns the recorded trace of one workload through
// the process trace cache — RAM first, then the artifact store (and peer
// fetcher, when installed), then a fresh capture written through to disk —
// so tools like momtrace observe the same fill path and TraceStats the
// experiment drivers do. It returns nil when the workload cannot be traced
// (an unknown name or an emulation fault).
func CaptureWorkloadTrace(app bool, name string, i ISA, sc Scale) *trace.Trace {
	tr, _ := workloadTrace(traceKey{app: app, name: name, isa: i, scale: sc})
	return tr
}

// warmTraces acquires the traces for a workload×ISA job list in parallel
// before the replay fan-out, so no replay worker blocks behind a capture
// another configuration also needs.
func warmTraces(ctx context.Context, app bool, names []string, isas []ISA, sc Scale) error {
	return par.For(ctx, len(names)*len(isas), func(idx int) error {
		_, err := workloadTrace(traceKey{app: app, name: names[idx/len(isas)], isa: isas[idx%len(isas)], scale: sc})
		return err
	})
}
