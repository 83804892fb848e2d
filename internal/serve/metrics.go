package serve

import (
	"net/http"

	mom "repro"
	"repro/internal/metric"
)

// metrics are the server's own series. /metrics exposes them together with
// the result store's, the trace layer's and the trace store's, each
// declared once where it is counted.
type metrics struct {
	set       metric.Set
	finished  *metric.CounterVec // completed jobs by terminal state
	submitted *metric.CounterVec // admitted jobs by experiment and mode
	durations *metric.Histogram  // executed job wall-clock by experiment
	stages    *metric.Histogram  // flight-recorder stage latency by stage

	coalesced, promotions     *metric.Counter
	batchRequests, batchItems *metric.Counter
	peerProxied, peerFills    *metric.Counter
	peerErrors                *metric.Counter
}

// declareMetrics declares the server's series, gauges reading its state at
// scrape time included.
func (s *Server) declareMetrics() {
	m, set := &s.metrics, &s.metrics.set
	set.GaugeVec("jobs", "Retained job records by lifecycle state.", "state", func() map[string]int64 {
		by := make(map[string]int64, len(States))
		for _, st := range States {
			by[st] = 0
		}
		s.mu.Lock()
		for _, j := range s.jobs {
			by[j.state]++
		}
		s.mu.Unlock()
		return by
	})
	set.Gauge("queue_depth", "Jobs waiting for a worker.", func() int64 { return int64(len(s.queue)) })
	set.Gauge("queue_capacity", "Admission queue capacity.", func() int64 { return int64(s.cfg.QueueCap) })
	set.Gauge("workers", "Worker pool size.", func() int64 { return int64(s.cfg.Workers) })
	set.Gauge("inflight_flights", "Distinct executions queued or running.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.inflight))
	})
	set.Gauge("inflight_followers", "Jobs riding an in-flight execution beyond its leader.", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		var n int64
		for _, fl := range s.inflight {
			if len(fl.members) > 1 {
				n += int64(len(fl.members) - 1)
			}
		}
		return n
	})
	m.finished = set.CounterVec("jobs_finished_total", "Jobs finished by terminal state.", "state")
	for _, st := range []string{StateDone, StateFailed, StateCancelled} {
		m.finished.With(st)
	}
	m.submitted = set.CounterVec("jobs_submitted_total", "Admitted jobs by experiment and simulation mode.", "exp", "mode")
	m.durations = set.Histogram("job_duration_seconds", "Wall-clock of executed jobs (store hits excluded).", "exp")
	m.stages = set.Histogram("stage_duration_seconds", "Flight-recorder stage latencies (queue wait, capture, execute, store write, peer hops).", "stage")
	m.coalesced = set.Counter("dedup_coalesced_total", "Submissions attached to an in-flight execution.")
	m.promotions = set.Counter("dedup_promotions_total", "Leader cancellations that promoted a follower.")
	m.batchRequests = set.Counter("batch_requests_total", "POST /v1/jobs:batch calls.")
	m.batchItems = set.Counter("batch_jobs_total", "Items carried by batch calls.")
	m.peerProxied = set.Counter("peer_proxied_total", "Flights forwarded to their owning peer.")
	m.peerFills = set.Counter("peer_fills_total", "Local store fills from a peer.")
	m.peerErrors = set.Counter("peer_errors_total", "Failed peer round trips.")
	if s.cfg.Peers != nil {
		set.Gauge("peers", "Configured cluster size (this node included).", func() int64 { return int64(s.cfg.Peers.Size()) })
	}
}

// handleMetrics serves the Prometheus text exposition of every series the
// node counts.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	// A failed write means the scraper hung up; there is no one to tell.
	_ = s.metrics.set.WritePrometheus(w, "momserved_")
	if s.cfg.Store != nil {
		_ = s.cfg.Store.Metrics().WritePrometheus(w, "momserved_store_")
	}
	_ = mom.TraceMetrics().WritePrometheus(w, "momserved_")
	if s.cfg.TraceStore != nil {
		_ = s.cfg.TraceStore.Metrics().WritePrometheus(w, "momserved_trace_store_")
	}
}
