package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	mom "repro"
)

// Prometheus text-format metrics, hand-rolled: the repository vendors no
// dependencies, and the exposition format for counters, gauges and
// histograms is small enough to emit directly. Everything cheap to
// recompute (jobs by state, store and trace-cache stats) is sampled at
// scrape time; only the per-experiment latency histograms accumulate.

// histBounds are the upper bounds (seconds) of the job-duration
// histogram: experiment runs span ~5ms kernel points to minutes-long
// bench-scale sweeps.
var histBounds = []float64{0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 15, 60, 300, 900}

type histogram struct {
	counts []uint64 // one per bound, +Inf bucket last
	sum    float64
	total  uint64
}

func (h *histogram) observe(seconds float64) {
	if h.counts == nil {
		h.counts = make([]uint64, len(histBounds)+1)
	}
	i := sort.SearchFloat64s(histBounds, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// modeKey labels the submission counter: one experiment in one simulation
// mode ("sampled" when the request carries a sample interval, "exact"
// otherwise).
type modeKey struct{ exp, mode string }

type metrics struct {
	mu        sync.Mutex
	durations map[string]*histogram // by experiment name
	stages    map[string]*histogram // by flight-recorder stage name
	finished  map[string]uint64     // completed jobs by terminal state
	submitted map[modeKey]uint64    // admitted jobs by experiment and mode

	// Dedup, batch and peer counters (guarded by mu; bumped via add/batch).
	coalesced     uint64 // submissions attached to an in-flight execution
	promotions    uint64 // leader cancellations that handed the flight on
	batchRequests uint64 // POST /v1/jobs:batch calls
	batchItems    uint64 // items carried by those calls
	peerProxied   uint64 // flights forwarded to their owning peer
	peerFills     uint64 // local store fills from a peer's store or result
	peerErrors    uint64 // failed peer round trips
	traceFetches  uint64 // trace artifacts fetched from their owning peer
}

func (m *metrics) init() {
	m.durations = map[string]*histogram{}
	m.stages = map[string]*histogram{}
	m.finished = map[string]uint64{}
	m.submitted = map[modeKey]uint64{}
}

// stage records one flight-recorder stage latency (queue wait, trace
// capture, execution, store write, peer proxy RTT, peer store fill).
func (m *metrics) stage(name string, d time.Duration) {
	m.mu.Lock()
	h := m.stages[name]
	if h == nil {
		h = &histogram{}
		m.stages[name] = h
	}
	h.observe(d.Seconds())
	m.mu.Unlock()
}

// durationTotals reports the accumulated wall-clock and count of executed
// jobs across every experiment — the service rate behind Retry-After.
func (m *metrics) durationTotals() (sum float64, count uint64) {
	m.mu.Lock()
	for _, h := range m.durations {
		sum += h.sum
		count += h.total
	}
	m.mu.Unlock()
	return sum, count
}

// submit records one admitted job (store hits included — the mode split is
// about what callers ask for, not what ran).
func (m *metrics) submit(exp string, sampled bool) {
	mode := "exact"
	if sampled {
		mode = "sampled"
	}
	m.mu.Lock()
	m.submitted[modeKey{exp, mode}]++
	m.mu.Unlock()
}

// add bumps one of the plain counters declared on metrics.
func (m *metrics) add(c *uint64) {
	m.mu.Lock()
	*c++
	m.mu.Unlock()
}

// batch records one batch call carrying n items.
func (m *metrics) batch(n int) {
	m.mu.Lock()
	m.batchRequests++
	m.batchItems += uint64(n)
	m.mu.Unlock()
}

// observe records one finished job (any terminal state).
func (m *metrics) observe(exp, state string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished[state]++
	h := m.durations[exp]
	if h == nil {
		h = &histogram{}
		m.durations[exp] = h
	}
	h.observe(d.Seconds())
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.writeMetrics(w)
}

// writeMetrics emits the full exposition: job lifecycle, admission queue,
// result store, trace cache, and per-experiment latency histograms.
func (s *Server) writeMetrics(w io.Writer) {
	// Jobs by current state (gauge over the retained records).
	byState := map[string]int{}
	s.mu.Lock()
	for _, j := range s.jobs {
		byState[j.state]++
	}
	queueLen := len(s.queue)
	inflightFlights := len(s.inflight)
	followers := 0
	for _, fl := range s.inflight {
		if n := len(fl.members); n > 1 {
			followers += n - 1
		}
	}
	s.mu.Unlock()
	fmt.Fprintln(w, "# HELP momserved_jobs Retained job records by lifecycle state.")
	fmt.Fprintln(w, "# TYPE momserved_jobs gauge")
	for _, st := range States {
		fmt.Fprintf(w, "momserved_jobs{state=%q} %d\n", st, byState[st])
	}
	fmt.Fprintln(w, "# HELP momserved_queue_depth Jobs waiting for a worker.")
	fmt.Fprintln(w, "# TYPE momserved_queue_depth gauge")
	fmt.Fprintf(w, "momserved_queue_depth %d\n", queueLen)
	fmt.Fprintln(w, "# HELP momserved_queue_capacity Admission queue capacity.")
	fmt.Fprintln(w, "# TYPE momserved_queue_capacity gauge")
	fmt.Fprintf(w, "momserved_queue_capacity %d\n", s.cfg.QueueCap)
	fmt.Fprintln(w, "# HELP momserved_workers Worker pool size.")
	fmt.Fprintln(w, "# TYPE momserved_workers gauge")
	fmt.Fprintf(w, "momserved_workers %d\n", s.cfg.Workers)
	fmt.Fprintln(w, "# HELP momserved_inflight_flights Distinct executions queued or running.")
	fmt.Fprintln(w, "# TYPE momserved_inflight_flights gauge")
	fmt.Fprintf(w, "momserved_inflight_flights %d\n", inflightFlights)
	fmt.Fprintln(w, "# HELP momserved_inflight_followers Jobs riding an in-flight execution beyond its leader.")
	fmt.Fprintln(w, "# TYPE momserved_inflight_followers gauge")
	fmt.Fprintf(w, "momserved_inflight_followers %d\n", followers)

	// Completed jobs by terminal state (counter).
	s.metrics.mu.Lock()
	fmt.Fprintln(w, "# HELP momserved_jobs_finished_total Jobs finished by terminal state.")
	fmt.Fprintln(w, "# TYPE momserved_jobs_finished_total counter")
	for _, st := range []string{StateDone, StateFailed, StateCancelled} {
		fmt.Fprintf(w, "momserved_jobs_finished_total{state=%q} %d\n", st, s.metrics.finished[st])
	}
	// Admitted jobs by experiment and simulation mode (sampled vs exact).
	modes := make([]modeKey, 0, len(s.metrics.submitted))
	for k := range s.metrics.submitted {
		modes = append(modes, k)
	}
	sort.Slice(modes, func(i, j int) bool {
		if modes[i].exp != modes[j].exp {
			return modes[i].exp < modes[j].exp
		}
		return modes[i].mode < modes[j].mode
	})
	fmt.Fprintln(w, "# HELP momserved_jobs_submitted_total Admitted jobs by experiment and simulation mode.")
	fmt.Fprintln(w, "# TYPE momserved_jobs_submitted_total counter")
	for _, k := range modes {
		fmt.Fprintf(w, "momserved_jobs_submitted_total{exp=%q,mode=%q} %d\n", k.exp, k.mode, s.metrics.submitted[k])
	}
	// Per-experiment latency histograms.
	exps := make([]string, 0, len(s.metrics.durations))
	for e := range s.metrics.durations {
		exps = append(exps, e)
	}
	sort.Strings(exps)
	fmt.Fprintln(w, "# HELP momserved_job_duration_seconds Wall-clock of executed jobs (store hits excluded).")
	fmt.Fprintln(w, "# TYPE momserved_job_duration_seconds histogram")
	for _, e := range exps {
		h := s.metrics.durations[e]
		var cum uint64
		for i, b := range histBounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "momserved_job_duration_seconds_bucket{exp=%q,le=%q} %d\n", e, trimFloat(b), cum)
		}
		fmt.Fprintf(w, "momserved_job_duration_seconds_bucket{exp=%q,le=\"+Inf\"} %d\n", e, h.total)
		fmt.Fprintf(w, "momserved_job_duration_seconds_sum{exp=%q} %g\n", e, h.sum)
		fmt.Fprintf(w, "momserved_job_duration_seconds_count{exp=%q} %d\n", e, h.total)
	}
	// Per-stage latency histograms from the flight recorder.
	stages := make([]string, 0, len(s.metrics.stages))
	for st := range s.metrics.stages {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	fmt.Fprintln(w, "# HELP momserved_stage_duration_seconds Flight-recorder stage latencies (queue wait, capture, execute, store write, peer hops).")
	fmt.Fprintln(w, "# TYPE momserved_stage_duration_seconds histogram")
	for _, st := range stages {
		h := s.metrics.stages[st]
		var cum uint64
		for i, b := range histBounds {
			cum += h.counts[i]
			fmt.Fprintf(w, "momserved_stage_duration_seconds_bucket{stage=%q,le=%q} %d\n", st, trimFloat(b), cum)
		}
		fmt.Fprintf(w, "momserved_stage_duration_seconds_bucket{stage=%q,le=\"+Inf\"} %d\n", st, h.total)
		fmt.Fprintf(w, "momserved_stage_duration_seconds_sum{stage=%q} %g\n", st, h.sum)
		fmt.Fprintf(w, "momserved_stage_duration_seconds_count{stage=%q} %d\n", st, h.total)
	}
	// Singleflight dedup and batch admission.
	fmt.Fprintln(w, "# HELP momserved_dedup_coalesced_total Submissions attached to an in-flight execution.")
	fmt.Fprintln(w, "# TYPE momserved_dedup_coalesced_total counter")
	fmt.Fprintf(w, "momserved_dedup_coalesced_total %d\n", s.metrics.coalesced)
	fmt.Fprintln(w, "# HELP momserved_dedup_promotions_total Leader cancellations that promoted a follower.")
	fmt.Fprintln(w, "# TYPE momserved_dedup_promotions_total counter")
	fmt.Fprintf(w, "momserved_dedup_promotions_total %d\n", s.metrics.promotions)
	fmt.Fprintln(w, "# HELP momserved_batch_requests_total POST /v1/jobs:batch calls.")
	fmt.Fprintln(w, "# TYPE momserved_batch_requests_total counter")
	fmt.Fprintf(w, "momserved_batch_requests_total %d\n", s.metrics.batchRequests)
	fmt.Fprintln(w, "# HELP momserved_batch_jobs_total Items carried by batch calls.")
	fmt.Fprintln(w, "# TYPE momserved_batch_jobs_total counter")
	fmt.Fprintf(w, "momserved_batch_jobs_total %d\n", s.metrics.batchItems)
	// Peer routing.
	fmt.Fprintln(w, "# HELP momserved_peer_proxied_total Flights forwarded to their owning peer.")
	fmt.Fprintln(w, "# TYPE momserved_peer_proxied_total counter")
	fmt.Fprintf(w, "momserved_peer_proxied_total %d\n", s.metrics.peerProxied)
	fmt.Fprintln(w, "# HELP momserved_peer_fills_total Local store fills from a peer.")
	fmt.Fprintln(w, "# TYPE momserved_peer_fills_total counter")
	fmt.Fprintf(w, "momserved_peer_fills_total %d\n", s.metrics.peerFills)
	fmt.Fprintln(w, "# HELP momserved_peer_errors_total Failed peer round trips.")
	fmt.Fprintln(w, "# TYPE momserved_peer_errors_total counter")
	fmt.Fprintf(w, "momserved_peer_errors_total %d\n", s.metrics.peerErrors)
	fmt.Fprintln(w, "# HELP momserved_trace_peer_fetches_total Trace artifacts fetched from their owning peer.")
	fmt.Fprintln(w, "# TYPE momserved_trace_peer_fetches_total counter")
	fmt.Fprintf(w, "momserved_trace_peer_fetches_total %d\n", s.metrics.traceFetches)
	s.metrics.mu.Unlock()
	if s.cfg.Peers != nil {
		fmt.Fprintln(w, "# HELP momserved_peers Configured cluster size (this node included).")
		fmt.Fprintln(w, "# TYPE momserved_peers gauge")
		fmt.Fprintf(w, "momserved_peers %d\n", s.cfg.Peers.Size())
	}

	// Result store.
	if s.cfg.Store != nil {
		st := s.cfg.Store.Stats()
		fmt.Fprintln(w, "# HELP momserved_store_hits_total Result-store lookups served from disk.")
		fmt.Fprintln(w, "# TYPE momserved_store_hits_total counter")
		fmt.Fprintf(w, "momserved_store_hits_total %d\n", st.Hits)
		fmt.Fprintln(w, "# HELP momserved_store_misses_total Result-store lookups that missed.")
		fmt.Fprintln(w, "# TYPE momserved_store_misses_total counter")
		fmt.Fprintf(w, "momserved_store_misses_total %d\n", st.Misses)
		fmt.Fprintln(w, "# HELP momserved_store_fills_total Entries written from a peer instead of computed locally.")
		fmt.Fprintln(w, "# TYPE momserved_store_fills_total counter")
		fmt.Fprintf(w, "momserved_store_fills_total %d\n", st.Fills)
		fmt.Fprintln(w, "# HELP momserved_store_evictions_total Entries evicted by the size bound.")
		fmt.Fprintln(w, "# TYPE momserved_store_evictions_total counter")
		fmt.Fprintf(w, "momserved_store_evictions_total %d\n", st.Evictions)
		fmt.Fprintln(w, "# HELP momserved_store_entries Entries currently stored.")
		fmt.Fprintln(w, "# TYPE momserved_store_entries gauge")
		fmt.Fprintf(w, "momserved_store_entries %d\n", st.Entries)
		fmt.Fprintln(w, "# HELP momserved_store_bytes On-disk bytes currently stored.")
		fmt.Fprintln(w, "# TYPE momserved_store_bytes gauge")
		fmt.Fprintf(w, "momserved_store_bytes %d\n", st.Bytes)
	}

	// Trace cache (the capture-once/replay-many layer every driver uses).
	ts := mom.ReadTraceStats()
	fmt.Fprintln(w, "# HELP momserved_trace_captures_total Workload traces recorded.")
	fmt.Fprintln(w, "# TYPE momserved_trace_captures_total counter")
	fmt.Fprintf(w, "momserved_trace_captures_total %d\n", ts.Captures)
	fmt.Fprintln(w, "# HELP momserved_trace_replays_total Timing runs fed from a recorded trace.")
	fmt.Fprintln(w, "# TYPE momserved_trace_replays_total counter")
	fmt.Fprintf(w, "momserved_trace_replays_total %d\n", ts.Replays)
	fmt.Fprintln(w, "# HELP momserved_trace_capture_seconds_total Wall-clock spent capturing traces.")
	fmt.Fprintln(w, "# TYPE momserved_trace_capture_seconds_total counter")
	fmt.Fprintf(w, "momserved_trace_capture_seconds_total %g\n", ts.CaptureTime.Seconds())
	fmt.Fprintln(w, "# HELP momserved_trace_replay_seconds_total Wall-clock spent in trace-fed timing runs.")
	fmt.Fprintln(w, "# TYPE momserved_trace_replay_seconds_total counter")
	fmt.Fprintf(w, "momserved_trace_replay_seconds_total %g\n", ts.ReplayTime.Seconds())
	fmt.Fprintln(w, "# HELP momserved_trace_cached_traces Traces currently held in memory.")
	fmt.Fprintln(w, "# TYPE momserved_trace_cached_traces gauge")
	fmt.Fprintf(w, "momserved_trace_cached_traces %d\n", ts.CachedTraces)
	fmt.Fprintln(w, "# HELP momserved_trace_cached_bytes Trace bytes currently held in memory.")
	fmt.Fprintln(w, "# TYPE momserved_trace_cached_bytes gauge")
	fmt.Fprintf(w, "momserved_trace_cached_bytes %d\n", ts.CachedBytes)

	// Trace artifact layer (disk persistence of captured traces).
	fmt.Fprintln(w, "# HELP momserved_trace_disk_hits_total Traces materialised from a local disk artifact.")
	fmt.Fprintln(w, "# TYPE momserved_trace_disk_hits_total counter")
	fmt.Fprintf(w, "momserved_trace_disk_hits_total %d\n", ts.DiskHits)
	fmt.Fprintln(w, "# HELP momserved_trace_disk_misses_total Artifact lookups that found nothing usable locally.")
	fmt.Fprintln(w, "# TYPE momserved_trace_disk_misses_total counter")
	fmt.Fprintf(w, "momserved_trace_disk_misses_total %d\n", ts.DiskMisses)
	fmt.Fprintln(w, "# HELP momserved_trace_disk_writes_total Traces persisted to the local artifact store.")
	fmt.Fprintln(w, "# TYPE momserved_trace_disk_writes_total counter")
	fmt.Fprintf(w, "momserved_trace_disk_writes_total %d\n", ts.DiskWrites)
	fmt.Fprintln(w, "# HELP momserved_trace_fetches_total Traces filled from a peer's artifact store.")
	fmt.Fprintln(w, "# TYPE momserved_trace_fetches_total counter")
	fmt.Fprintf(w, "momserved_trace_fetches_total %d\n", ts.PeerFetches)

	// Trace artifact store occupancy.
	if s.cfg.TraceStore != nil {
		st := s.cfg.TraceStore.Stats()
		fmt.Fprintln(w, "# HELP momserved_trace_store_hits_total Trace-artifact lookups served from disk.")
		fmt.Fprintln(w, "# TYPE momserved_trace_store_hits_total counter")
		fmt.Fprintf(w, "momserved_trace_store_hits_total %d\n", st.Hits)
		fmt.Fprintln(w, "# HELP momserved_trace_store_misses_total Trace-artifact lookups that missed.")
		fmt.Fprintln(w, "# TYPE momserved_trace_store_misses_total counter")
		fmt.Fprintf(w, "momserved_trace_store_misses_total %d\n", st.Misses)
		fmt.Fprintln(w, "# HELP momserved_trace_store_entries Trace artifacts currently stored.")
		fmt.Fprintln(w, "# TYPE momserved_trace_store_entries gauge")
		fmt.Fprintf(w, "momserved_trace_store_entries %d\n", st.Entries)
		fmt.Fprintln(w, "# HELP momserved_trace_store_bytes On-disk bytes of stored trace artifacts.")
		fmt.Fprintln(w, "# TYPE momserved_trace_store_bytes gauge")
		fmt.Fprintf(w, "momserved_trace_store_bytes %d\n", st.Bytes)
	}
}

// trimFloat formats a bucket bound the way Prometheus clients do (no
// trailing zeros).
func trimFloat(f float64) string {
	return fmt.Sprintf("%g", f)
}
