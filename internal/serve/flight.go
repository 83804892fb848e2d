package serve

import (
	"crypto/rand"
	"encoding/hex"
	"io"
	"net/http"
	"sync"
	"time"

	mom "repro"
	"repro/internal/obs"
	"repro/internal/trace"
)

// The job flight recorder: every submission carries a generated request
// ID and every flight accumulates a timeline of stage spans — queue wait,
// trace capture, execution, store write, peer proxy/fill hops — with
// monotonic timestamps. The trace context (a random 16-byte hex ID)
// propagates across peer hops via the Mom-Trace header, so a job that
// crosses nodes stitches into one coherent trace: every node involved
// records its own flight under the shared ID and GET /debug/flights?trace=
// assembles the pieces. A bounded ring of completed flights backs
// GET /debug/flights (JSON, or ?format=chrome for a trace-event document
// that opens in chrome://tracing / Perfetto next to the pipeline traces
// internal/obs exports).

// TraceHeader carries the trace context across peer proxy and store-fill
// HTTP hops.
const TraceHeader = "Mom-Trace"

// Flight kinds: how a submission was satisfied.
const (
	KindCompute    = "compute"     // executed on this node's worker pool
	KindProxy      = "proxy"       // forwarded to the owning peer
	KindStoreHit   = "store-hit"   // born done from the local store
	KindPeerFill   = "peer-fill"   // born done from the owner's store
	KindStoreServe = "store-serve" // served a raw document to a peer
)

// newID returns a fresh random hex identifier (16 chars). Used for both
// request IDs and trace-context IDs.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand never fails on the supported platforms; degrade to a
		// constant rather than panicking the serving path.
		return "0000000000000000"
	}
	return hex.EncodeToString(b[:])
}

// traceCtx is the per-submission trace context: the cross-node trace ID
// (adopted from the Mom-Trace header or freshly generated) and this
// submission's request ID.
type traceCtx struct {
	trace string
	reqID string
}

// newTraceCtx builds the context for one submission, adopting a valid
// inbound Mom-Trace header when present.
func newTraceCtx(r *http.Request) traceCtx {
	return traceCtx{trace: adoptTrace(r), reqID: "r" + newID()}
}

// adoptTrace validates an inbound Mom-Trace header: plain lowercase hex,
// bounded length. Anything else gets a fresh ID — a malformed header must
// not become a log-injection or unbounded-memory vector.
func adoptTrace(r *http.Request) string {
	t := r.Header.Get(TraceHeader)
	if len(t) < 8 || len(t) > 64 {
		return newID()
	}
	for _, c := range t {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return newID()
		}
	}
	return t
}

// stageSpan is one recorded stage with monotonic timestamps (time.Time
// retains the monotonic reading, so in-process durations are exact).
type stageSpan struct {
	name   string
	start  time.Time
	end    time.Time
	detail string
}

// flightRecord is the recorder's view of one flight (or born-done
// submission): identity, members, and the accumulated span timeline.
type flightRecord struct {
	trace  string
	kind   string
	key    string
	exp    string
	peer   string
	state  string
	reqIDs []string
	start  time.Time
	end    time.Time
	spans  []stageSpan
}

// recorder holds the flights currently in the air and a bounded ring of
// completed ones, newest last. All record mutation goes through the
// recorder's mutex: spans arrive from worker goroutines, follower
// attachments from request handlers and capture attributions from the
// trace hook, concurrently.
type recorder struct {
	mu     sync.Mutex
	cap    int
	active map[*flightRecord]struct{}
	done   []*flightRecord
}

// span appends one completed stage span to a record.
func (r *recorder) span(fr *flightRecord, name string, start, end time.Time, detail string) {
	r.mu.Lock()
	fr.spans = append(fr.spans, stageSpan{name: name, start: start, end: end, detail: detail})
	r.mu.Unlock()
}

// member adds a follower's request ID to a record, with an instantaneous
// attach span marking when it joined the flight.
func (r *recorder) member(fr *flightRecord, reqID string, at time.Time) {
	r.mu.Lock()
	fr.reqIDs = append(fr.reqIDs, reqID)
	fr.spans = append(fr.spans, stageSpan{name: "attach", start: at, end: at, detail: reqID})
	r.mu.Unlock()
}

func newRecorder(capacity int) *recorder {
	if capacity <= 0 {
		capacity = 256
	}
	return &recorder{cap: capacity, active: map[*flightRecord]struct{}{}}
}

// open registers a new active record.
func (r *recorder) open(fr *flightRecord) {
	r.mu.Lock()
	r.active[fr] = struct{}{}
	r.mu.Unlock()
}

// abandon drops an active record that never became a flight (admission
// refused after the record was opened).
func (r *recorder) abandon(fr *flightRecord) {
	r.mu.Lock()
	delete(r.active, fr)
	r.mu.Unlock()
}

// close finalises a record and moves it to the completed ring.
func (r *recorder) close(fr *flightRecord, state string, end time.Time) {
	r.mu.Lock()
	fr.state = state
	fr.end = end
	delete(r.active, fr)
	r.done = append(r.done, fr)
	if len(r.done) > r.cap {
		// Drop the oldest; shift rather than reslice so the backing array
		// does not pin evicted records.
		copy(r.done, r.done[len(r.done)-r.cap:])
		r.done = r.done[:r.cap]
	}
	r.mu.Unlock()
}

// attachCapture attributes one trace-capture span to every compute flight
// that was already in the air when the capture started: a capture stalls
// exactly the runs waiting on it, and the span carries its own honest
// timestamps either way.
func (r *recorder) attachCapture(info trace.CaptureInfo) {
	end := info.Start.Add(info.Duration)
	detail := info.Program
	if info.Err != nil {
		detail += ": " + info.Err.Error()
	}
	r.mu.Lock()
	for fr := range r.active {
		if fr.kind == KindCompute && fr.start.Before(info.Start) {
			fr.spans = append(fr.spans, stageSpan{name: "capture", start: info.Start, end: end, detail: detail})
		}
	}
	r.mu.Unlock()
}

// live is the set of running Servers the process-wide trace hooks fan out
// to: tests (and the two-node suites) run several servers in one process,
// and each must see only its own flights. The capture hook and the peer
// trace fetcher are installed once, on the first subscription.
var live struct {
	once sync.Once
	mu   sync.Mutex
	subs map[*Server]struct{}
}

func subscribe(s *Server) {
	live.once.Do(func() {
		live.subs = map[*Server]struct{}{}
		trace.SetCaptureHook(func(info trace.CaptureInfo) {
			for _, srv := range liveServers() {
				srv.flights.attachCapture(info)
				srv.metrics.stages.Observe("capture", info.Duration)
			}
		})
		mom.SetTraceFetcher(func(key string) (io.ReadCloser, bool) {
			for _, srv := range liveServers() {
				if rc, ok := srv.fetchPeerTrace(key); ok {
					return rc, true
				}
			}
			return nil, false
		})
	})
	live.mu.Lock()
	live.subs[s] = struct{}{}
	live.mu.Unlock()
}

func unsubscribe(s *Server) {
	live.mu.Lock()
	delete(live.subs, s)
	live.mu.Unlock()
}

// liveServers returns the subscribed Servers, so the hooks call into them
// without holding the set's lock.
func liveServers() []*Server {
	live.mu.Lock()
	defer live.mu.Unlock()
	subs := make([]*Server, 0, len(live.subs))
	for srv := range live.subs {
		subs = append(subs, srv)
	}
	return subs
}

// flightDoc is the public JSON shape of one completed flight.
type flightDoc struct {
	Trace    string        `json:"trace"`
	Kind     string        `json:"kind"`
	Key      string        `json:"key"`
	Exp      string        `json:"exp,omitempty"`
	State    string        `json:"state"`
	Peer     string        `json:"peer,omitempty"`
	Requests []string      `json:"requests"`
	Start    time.Time     `json:"start"`
	WallUS   int64         `json:"wall_us"`
	Spans    []mom.SpanDoc `json:"spans"`
}

func (fr *flightRecord) doc() flightDoc {
	d := flightDoc{
		Trace: fr.trace, Kind: fr.kind, Key: fr.key, Exp: fr.exp,
		State: fr.state, Peer: fr.peer,
		Requests: append([]string(nil), fr.reqIDs...),
		Start:    fr.start.Round(0), // strip the monotonic reading for JSON
		WallUS:   fr.end.Sub(fr.start).Microseconds(),
		Spans:    make([]mom.SpanDoc, 0, len(fr.spans)),
	}
	for _, sp := range fr.spans {
		d.Spans = append(d.Spans, mom.SpanDoc{
			Name:    sp.name,
			StartUS: sp.start.Sub(fr.start).Microseconds(),
			DurUS:   sp.end.Sub(sp.start).Microseconds(),
			Detail:  sp.detail,
		})
	}
	return d
}

// snapshot returns completed flights, newest first, optionally filtered
// by trace ID.
func (r *recorder) snapshot(traceID string) []flightDoc {
	r.mu.Lock()
	docs := make([]flightDoc, 0, len(r.done))
	for i := len(r.done) - 1; i >= 0; i-- {
		fr := r.done[i]
		if traceID != "" && fr.trace != traceID {
			continue
		}
		docs = append(docs, fr.doc())
	}
	r.mu.Unlock()
	return docs
}

// handleFlights serves the completed-flight ring: JSON by default,
// Chrome-trace-event JSON with ?format=chrome (one track per flight,
// wall-clock microsecond timestamps so exports from peer nodes line up
// when loaded together), optionally filtered by ?trace=<id>.
func (s *Server) handleFlights(w http.ResponseWriter, r *http.Request) {
	docs := s.flights.snapshot(r.URL.Query().Get("trace"))
	if r.URL.Query().Get("format") == "chrome" {
		writeFlightsChrome(w, docs, s.nodeName())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"flights": docs})
}

// nodeName labels this node's process track in Chrome exports.
func (s *Server) nodeName() string {
	if s.cfg.Peers != nil {
		return s.cfg.Peers.Self()
	}
	return "momserver"
}

// writeFlightsChrome renders flights as trace events on one process track
// named after the node, one thread track per flight.
func writeFlightsChrome(w http.ResponseWriter, docs []flightDoc, node string) {
	events := make([]obs.TraceEvent, 0, len(docs)*4+1)
	events = append(events, obs.TraceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": node},
	})
	for tid, d := range docs {
		base := d.Start.UnixMicro()
		wall := d.WallUS
		if wall < 1 {
			wall = 1
		}
		events = append(events, obs.TraceEvent{
			Name: d.Kind + " " + d.Exp, Cat: "flight", Ph: "X",
			Ts: base, Dur: wall, Pid: 0, Tid: tid,
			Args: map[string]any{
				"trace": d.Trace, "key": d.Key, "state": d.State,
				"peer": d.Peer, "requests": d.Requests,
			},
		})
		for _, sp := range d.Spans {
			dur := sp.DurUS
			if dur < 1 {
				dur = 1
			}
			ev := obs.TraceEvent{
				Name: sp.Name, Cat: "stage", Ph: "X",
				Ts: base + sp.StartUS, Dur: dur, Pid: 0, Tid: tid,
			}
			if sp.Detail != "" {
				ev.Args = map[string]any{"detail": sp.Detail}
			}
			events = append(events, ev)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteTrace(w, events) // a failed write means the client hung up
}
