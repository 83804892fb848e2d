package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"time"

	mom "repro"
)

// Multi-node momserver: every node knows the full peer set and routes
// each content-address key to one owner by rendezvous (highest-random-
// weight) hashing, so all nodes agree on ownership with no coordination
// and a peer-set change only remaps the keys of the peers that changed.
// A node asked for a key it does not own first tries to fill its local
// store from the owner's (GET /v1/store/{key} — fill-on-miss, replicating
// hot results toward their demand) and otherwise proxies the computation
// to the owner, waiting on the owner's worker pool rather than its own.

// PeerSet is the cluster membership: every node's base URL, plus which
// one is this node. It is immutable after construction; all nodes must be
// configured with the same URL strings for ownership to agree.
type PeerSet struct {
	self   string
	peers  []string
	client *http.Client
}

// NewPeerSet validates a peer list (base URLs, this node's included) and
// builds the routing table. Order does not matter; URLs are compared
// after trailing-slash trimming.
func NewPeerSet(self string, peers []string) (*PeerSet, error) {
	p := &PeerSet{
		self:   canonPeer(self),
		client: &http.Client{Timeout: 30 * time.Second},
	}
	if p.self == "" {
		return nil, fmt.Errorf("peers: -self is required when -peers is set")
	}
	seen := map[string]bool{}
	for _, raw := range peers {
		c := canonPeer(raw)
		if c == "" {
			continue
		}
		u, err := url.Parse(c)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("peers: %q is not a base URL", raw)
		}
		if seen[c] {
			return nil, fmt.Errorf("peers: duplicate peer %q", c)
		}
		seen[c] = true
		p.peers = append(p.peers, c)
	}
	if len(p.peers) < 2 {
		return nil, fmt.Errorf("peers: need at least 2 peers, have %d", len(p.peers))
	}
	if !seen[p.self] {
		return nil, fmt.Errorf("peers: self %q is not in the peer list", p.self)
	}
	return p, nil
}

func canonPeer(s string) string {
	return strings.TrimRight(strings.TrimSpace(s), "/")
}

// Self returns this node's canonical base URL.
func (p *PeerSet) Self() string { return p.self }

// Size returns the cluster size.
func (p *PeerSet) Size() int { return len(p.peers) }

// Owner maps a content-address key to the peer that owns it: the peer
// with the highest rendezvous hash score. Every node computes the same
// owner from the same peer list, with no coordination and near-uniform
// key spread; removing a peer only remaps the keys it owned.
func (p *PeerSet) Owner(key string) string {
	var best string
	var bestScore [sha256.Size]byte
	for _, peer := range p.peers {
		h := sha256.New()
		io.WriteString(h, peer)
		h.Write([]byte{0})
		io.WriteString(h, key)
		var score [sha256.Size]byte
		h.Sum(score[:0])
		if best == "" || bytes.Compare(score[:], bestScore[:]) > 0 {
			best, bestScore = peer, score
		}
	}
	return best
}

// handleStoreGet serves one raw stored document to a peer (or any
// client): the fill-on-miss read path. It never computes and never
// proxies — a miss is a plain 404, which tells the asking peer to fall
// back to proxy submission. A request carrying a Mom-Trace header is a
// peer hop of a distributed flight, so the read is recorded under the
// caller's trace context for stitching.
func (s *Server) handleStoreGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	var fr *flightRecord
	t0 := time.Now()
	if tid := r.Header.Get(TraceHeader); tid != "" {
		tc := traceCtx{trace: adoptTrace(r), reqID: "r" + newID()}
		fr = s.newFlightRecord(KindStoreServe, key, "", "", tc, t0)
	}
	settle := func(state string) {
		if fr != nil {
			now := time.Now()
			s.flights.span(fr, "store-read", t0, now, state)
			s.flights.close(fr, state, now)
		}
	}
	if s.cfg.Store == nil {
		settle(StateFailed)
		httpError(w, http.StatusNotFound, "no store configured")
		return
	}
	val, ok := s.cfg.Store.Get(key)
	if !ok {
		settle(StateFailed)
		httpError(w, http.StatusNotFound, "no entry for key %q", key)
		return
	}
	settle(StateDone)
	w.Header().Set("Content-Type", "application/json")
	w.Write(val)
}

// peerStoreGet fetches a stored document from a peer's store, bounded by
// a short deadline so a slow peer degrades a submission to a proxy (or
// local compute), never hangs it. The trace context rides the Mom-Trace
// header so the owner's store read stitches into the submitter's flight.
func (s *Server) peerStoreGet(peer, key string, tc traceCtx) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	t0 := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/store/"+key, nil)
	if err != nil {
		return nil, false
	}
	req.Header.Set(TraceHeader, tc.trace)
	resp, err := s.cfg.Peers.client.Do(req)
	if err != nil {
		s.metrics.peerErrors.Inc()
		s.logPeerError("store-fetch", peer, key, tc.trace, time.Since(t0), err)
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		if resp.StatusCode != http.StatusNotFound {
			s.metrics.peerErrors.Inc()
			s.logPeerError("store-fetch", peer, key, tc.trace, time.Since(t0),
				fmt.Errorf("status %d", resp.StatusCode))
		}
		return nil, false
	}
	val, err := readPeerDoc(resp.Body)
	if err != nil {
		s.metrics.peerErrors.Inc()
		s.logPeerError("store-fetch", peer, key, tc.trace, time.Since(t0), err)
		return nil, false
	}
	return val, true
}

// runProxy executes a flight whose key another node owns: submit there,
// poll to a terminal state, fetch the result, and fill the local store so
// the next request for this key is a local hit. The flight coalesces
// local duplicates exactly like a computing flight; cancellation of the
// last member cancels the wait (the owner keeps or stops the job per its
// own policy — a later resubmission would coalesce with it there).
func (s *Server) runProxy(fl *flight) {
	ctx, cancel, ok := s.begin(fl)
	if !ok {
		return
	}
	defer cancel()

	t0 := time.Now()
	out, err := s.proxyRun(ctx, fl, fl.peer, fl.req, fl.timeout)
	now := time.Now()
	s.flights.span(fl.rec, "proxy", t0, now, fl.peer)
	s.metrics.stages.Observe("proxy", now.Sub(t0))
	ctxErr := ctx.Err()
	if err == nil && ctxErr == nil && s.cfg.Store != nil {
		w0 := time.Now()
		_ = s.cfg.Store.Fill(fl.key, out)
		s.flights.span(fl.rec, "store", w0, time.Now(), "fill")
		s.metrics.stages.Observe("store", time.Since(w0))
		s.metrics.peerFills.Inc()
	}
	if err != nil && ctxErr == nil {
		s.metrics.peerErrors.Inc()
		s.logPeerError("proxy", fl.peer, fl.key, fl.rec.trace, now.Sub(t0), err)
	}
	s.finish(fl, out, err, ctxErr)
}

// proxyRun drives one job to completion on a peer. The flight's trace
// context rides every hop in the Mom-Trace header, so the owner records
// its side of the work under the same trace ID.
func (s *Server) proxyRun(ctx context.Context, fl *flight, peer string, req mom.JobRequest, timeout time.Duration) ([]byte, error) {
	payload, err := json.Marshal(submitBody{JobRequest: req, TimeoutMS: timeout.Milliseconds()})
	if err != nil {
		return nil, err
	}
	traceID := fl.rec.trace
	var d jobDoc
	code, err := s.peerJSON(ctx, http.MethodPost, peer+"/v1/jobs", payload, traceID, &d)
	if err != nil {
		return nil, fmt.Errorf("peer %s: submit: %w", peer, err)
	}
	switch code {
	case http.StatusOK, http.StatusAccepted:
	default:
		return nil, fmt.Errorf("peer %s: submit refused with status %d", peer, code)
	}
	for !terminal(d.State) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(25 * time.Millisecond):
		}
		if code, err = s.peerJSON(ctx, http.MethodGet, peer+"/v1/jobs/"+d.ID, nil, traceID, &d); err != nil {
			return nil, fmt.Errorf("peer %s: poll: %w", peer, err)
		} else if code != http.StatusOK {
			return nil, fmt.Errorf("peer %s: poll status %d", peer, code)
		}
	}
	if d.State != StateDone {
		return nil, fmt.Errorf("peer %s: job %s ended %s: %s", peer, d.ID, d.State, d.Error)
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+d.ResultURL, nil)
	if err != nil {
		return nil, err
	}
	hreq.Header.Set(TraceHeader, traceID)
	resp, err := s.cfg.Peers.client.Do(hreq)
	if err != nil {
		return nil, fmt.Errorf("peer %s: result: %w", peer, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: result status %d", peer, resp.StatusCode)
	}
	out, err := readPeerDoc(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("peer %s: result: %w", peer, err)
	}
	return out, nil
}

// readPeerBody reads a peer's response body to its end, failing once the
// body passes limit bytes.
func readPeerBody(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err == nil && int64(len(b)) > limit {
		return nil, fmt.Errorf("response body exceeds %d bytes", limit)
	}
	return b, err
}

// readPeerDoc reads a result document from a peer: at most
// maxPeerDocBytes, and valid JSON, as every result document is. Anything
// else is a peer error, never served or filled into the local store.
func readPeerDoc(r io.Reader) ([]byte, error) {
	b, err := readPeerBody(r, maxPeerDocBytes)
	if err == nil && !json.Valid(b) {
		return nil, errors.New("response body is not a JSON document")
	}
	return b, err
}

// peerJSON performs one JSON request/response round trip with a peer,
// propagating the trace context.
func (s *Server) peerJSON(ctx context.Context, method, url string, payload []byte, traceID string, out any) (int, error) {
	var body io.Reader
	if payload != nil {
		body = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return 0, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if traceID != "" {
		req.Header.Set(TraceHeader, traceID)
	}
	resp, err := s.cfg.Peers.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := readPeerBody(resp.Body, maxPeerDocBytes)
	if err != nil {
		return resp.StatusCode, err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, fmt.Errorf("bad response body: %w", err)
	}
	return resp.StatusCode, nil
}
