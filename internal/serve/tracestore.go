package serve

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Trace artifacts over the peer fabric: a node whose local artifact store
// misses asks the key's rendezvous owner before recapturing, exactly like
// result documents fill from their owner's store. The serving side is
// GET /v1/traces/{key} (raw artifact bytes; a miss is a plain 404), the
// asking side is the process-wide mom.TraceFetcher, installed once and
// fanned out to every live Server (see subscribe). Artifact bytes are verified by
// the trace decoder on arrival, so a damaged or lying peer costs a
// recapture, never a wrong trace.

// Flight kinds of the trace artifact paths.
const (
	KindTraceServe = "trace-serve" // served a raw trace artifact to a peer
	KindTraceFetch = "trace-fetch" // fetched a trace artifact from its owner
)

// handleTraceGet serves one raw trace artifact to a peer (or any client).
// It never captures — a miss is a plain 404, which tells the asking node to
// recapture locally. A request carrying a Mom-Trace header is a peer hop of
// a distributed flight, so the read is recorded under the caller's trace
// context for stitching.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var fr *flightRecord
	t0 := time.Now()
	if tid := r.Header.Get(TraceHeader); tid != "" {
		tc := traceCtx{trace: adoptTrace(r), reqID: "r" + newID()}
		fr = s.newFlightRecord(KindTraceServe, key, "", "", tc, t0)
	}
	settle := func(state string) {
		if fr != nil {
			now := time.Now()
			s.flights.span(fr, "trace-read", t0, now, state)
			s.flights.close(fr, state, now)
		}
	}
	if s.cfg.TraceStore == nil {
		settle(StateFailed)
		httpError(w, http.StatusNotFound, "no trace store configured")
		return
	}
	rc, n, ok := s.cfg.TraceStore.GetStream(key)
	if !ok {
		settle(StateFailed)
		httpError(w, http.StatusNotFound, "no trace artifact for key %q", key)
		return
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	_, err := io.CopyN(w, rc, n)
	if err != nil {
		settle(StateFailed)
		return
	}
	settle(StateDone)
}

// fetchPeerTrace asks the artifact key's rendezvous owner for its bytes.
// It reports ok=false when this node owns the key (nobody else would have
// it), the owner misses, or the round trip fails — the caller then
// recaptures. The body is drained before returning so the recorded span
// covers the whole transfer.
func (s *Server) fetchPeerTrace(key string) (io.ReadCloser, bool) {
	if s.cfg.Peers == nil {
		return nil, false
	}
	owner := s.cfg.Peers.Owner(key)
	if owner == s.cfg.Peers.Self() {
		return nil, false
	}
	tc := traceCtx{trace: newID(), reqID: "r" + newID()}
	t0 := time.Now()
	fr := s.newFlightRecord(KindTraceFetch, key, "", owner, tc, t0)
	settle := func(state string) {
		now := time.Now()
		s.flights.span(fr, "trace-fetch", t0, now, owner)
		s.metrics.stages.Observe("trace-fetch", now.Sub(t0))
		s.flights.close(fr, state, now)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, owner+"/v1/traces/"+key, nil)
	if err != nil {
		settle(StateFailed)
		return nil, false
	}
	req.Header.Set(TraceHeader, tc.trace)
	resp, err := s.cfg.Peers.client.Do(req)
	if err != nil {
		s.metrics.peerErrors.Inc()
		s.logPeerError("trace-fetch", owner, key, tc.trace, time.Since(t0), err)
		settle(StateFailed)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusNotFound {
			s.metrics.peerErrors.Inc()
			s.logPeerError("trace-fetch", owner, key, tc.trace, time.Since(t0),
				fmt.Errorf("status %d", resp.StatusCode))
		}
		settle(StateFailed)
		return nil, false
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		s.metrics.peerErrors.Inc()
		s.logPeerError("trace-fetch", owner, key, tc.trace, time.Since(t0), err)
		settle(StateFailed)
		return nil, false
	}
	settle(StateDone)
	return io.NopCloser(bytes.NewReader(blob)), true
}
