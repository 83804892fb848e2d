// Package serve is the momserver job service: an HTTP front end that runs
// experiment requests (mom.JobRequest) on a bounded worker pool and
// memoises their canonical result documents in a content-addressed store.
//
// The design mirrors the paper's batch methodology as a long-running
// service: a design-space exploration asks for many overlapping
// (experiment, configuration, workload) points, most of which have been
// computed before, so every submission is first looked up by its
// canonical SHA-256 key (schema version + normalised request) and only
// misses consume a worker. Between the store and the workers sits a
// singleflight layer: jobs are grouped into flights keyed by content
// address, identical submissions in flight attach to the existing flight
// as followers and share its one execution (and its one result slice, so
// every member observes byte-identical documents), and cancelling the
// leader promotes a follower instead of failing the group. A batch
// endpoint (POST /v1/jobs:batch) admits a whole request list in one round
// trip, deduplicating within the batch and against in-flight work, and an
// optional peer set consistent-hashes keys across nodes: non-owned keys
// are filled from the owner's store on miss, or proxied to the owner for
// computation, so hot results replicate toward demand. Admission control
// is a fixed-capacity queue — a full queue answers 429 with Retry-After
// rather than buffering unboundedly — and every flight runs under a
// per-job deadline with cooperative cancellation threaded through the
// experiment drivers down to par.For.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	mom "repro"
	"repro/internal/store"
)

// Job lifecycle states.
const (
	StateQueued    = "queued"
	StateRunning   = "running"
	StateDone      = "done"
	StateFailed    = "failed"
	StateCancelled = "cancelled"
)

// States lists the lifecycle states in order (for metrics).
var States = []string{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled}

// Runner executes one normalised request and returns its canonical result
// document. Tests substitute stubs; production uses mom.RunJobRequest.
type Runner func(ctx context.Context, req mom.JobRequest) ([]byte, error)

// Config parameterises a Server. Zero values select the documented
// defaults.
type Config struct {
	Workers        int           // worker goroutines (default GOMAXPROCS)
	QueueCap       int           // admission queue capacity (default 64)
	Store          *store.Store  // optional result store (nil: recompute always)
	TraceStore     *store.Store  // optional trace artifact store served to peers (nil: 404)
	DefaultTimeout time.Duration // per-job deadline when the request names none (default 10m)
	MaxTimeout     time.Duration // upper clamp on requested deadlines (default 1h)
	MaxJobs        int           // retained job records; oldest finished are pruned (default 4096)
	Runner         Runner        // job executor (default mom.RunJobRequest)
	Peers          *PeerSet      // optional multi-node peer set (nil: single node)
	Logger         *slog.Logger  // structured log sink (nil: silent)
	SlowJob        time.Duration // flights slower than this log a warning (<=0: disabled)
	FlightLog      int           // completed flights retained for /debug/flights (default 256)
	EnablePprof    bool          // mount net/http/pprof under /debug/pprof
}

// flight is one in-flight computation: the execution unit the queue and
// workers handle. Every job submitted for the flight's key while it is
// queued or running is a member; members[0] is the leader. All members
// share the single execution and its result bytes.
type flight struct {
	key     string
	req     mom.JobRequest
	timeout time.Duration
	members []*job             // live (non-terminal) jobs; members[0] leads
	cancel  context.CancelFunc // set once the flight starts
	running bool
	started time.Time
	peer    string        // non-empty: the owning peer this flight proxies to
	rec     *flightRecord // flight-recorder timeline (never nil)
}

type job struct {
	id        string
	reqID     string // generated per-submission request ID (logs, flights)
	trace     string // cross-node trace context (Mom-Trace)
	key       string
	req       mom.JobRequest
	timeout   time.Duration
	state     string
	err       string
	result    []byte
	fromStore bool
	coalesced bool   // attached to an existing flight as a follower
	peer      string // served via this peer (store fill or proxy)
	created   time.Time
	started   time.Time
	finished  time.Time
	fl        *flight       // membership while queued/running; nil when terminal
	done      chan struct{} // closed on any terminal state
}

// Server is the job service. It implements http.Handler.
type Server struct {
	cfg     Config
	mux     *http.ServeMux
	queue   chan *flight
	workers sync.WaitGroup

	mu       sync.Mutex
	draining bool
	nextID   int
	jobs     map[string]*job
	order    []string           // job ids oldest-first, for pruning and listing
	inflight map[string]*flight // queued/running flights by content-address key

	flights *recorder // completed-flight ring behind /debug/flights
	metrics metrics
}

// New builds a Server and starts its worker pool.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 10 * time.Minute
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = time.Hour
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = 4096
	}
	if cfg.Runner == nil {
		cfg.Runner = mom.RunJobRequest
	}
	s := &Server{
		cfg:      cfg,
		queue:    make(chan *flight, cfg.QueueCap),
		jobs:     map[string]*job{},
		inflight: map[string]*flight{},
		flights:  newRecorder(cfg.FlightLog),
	}
	s.declareMetrics()
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("POST /v1/jobs:batch", s.handleBatch)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/store/{key}", s.handleStoreGet)
	s.mux.HandleFunc("GET /v1/traces/{key}", s.handleTraceGet)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /debug/flights", s.handleFlights)
	if cfg.EnablePprof {
		// Opt-in: profiling endpoints expose stacks and heap contents, so
		// they never ride on the default mux unconditionally.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	subscribe(s)
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the service: no new submissions are admitted (503), the
// workers finish every flight already accepted — running and queued,
// peer-proxied included — and then exit. It returns ctx.Err() if the
// drain outlives ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
		unsubscribe(s)
	}
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submitBody is the POST /v1/jobs payload: the request fields flattened,
// plus an optional execution deadline. The deadline is intentionally NOT
// part of the store key — it describes how long the caller will wait, not
// what is computed.
type submitBody struct {
	mom.JobRequest
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// clampTimeout resolves a requested timeout_ms against the configured
// default and ceiling.
func (s *Server) clampTimeout(ms int64) time.Duration {
	timeout := s.cfg.DefaultTimeout
	if ms > 0 {
		timeout = time.Duration(ms) * time.Millisecond
	}
	if timeout > s.cfg.MaxTimeout {
		timeout = s.cfg.MaxTimeout
	}
	return timeout
}

// Admission failures the HTTP layer maps to status codes.
var (
	errDraining  = errors.New("server is draining")
	errQueueFull = errors.New("job queue full")
)

// decodeBody decodes a POST body of at most maxBodyBytes into v,
// rejecting unknown fields. On failure it answers 413 (body too large) or
// 400 and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case errors.As(err, &tooLarge):
		httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
	case err != nil:
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
	default:
		return true
	}
	return false
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var body submitBody
	if !decodeBody(w, r, &body) {
		return
	}
	req, err := body.JobRequest.Normalized()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	key, err := req.Key()
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid request: %v", err)
		return
	}
	j, code, err := s.admit(req, key, s.clampTimeout(body.TimeoutMS), newTraceCtx(r))
	switch {
	case errors.Is(err, errDraining):
		httpError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case errors.Is(err, errQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		httpError(w, http.StatusTooManyRequests, "job queue full (%d queued)", s.cfg.QueueCap)
		return
	}
	s.writeJob(w, code, j)
}

// retryAfter estimates, in whole seconds, when a refused submission is
// worth retrying: the current queue depth divided by the worker pool's
// observed drain rate (jobs per second, from the accumulated duration
// histograms). With no completed work to estimate from it answers 1 —
// the old hardcoded hint — and the estimate is clamped to [1, 300] so a
// pathological backlog cannot tell clients to go away for hours.
func (s *Server) retryAfter() int {
	depth := len(s.queue)
	sum, count := s.metrics.durations.Totals()
	avg := 1.0 // no history: assume a one-second job
	if count > 0 {
		avg = sum / float64(count)
	}
	secs := math.Ceil(avg * float64(depth+1) / float64(s.cfg.Workers))
	if secs < 1 {
		return 1
	}
	if secs > 300 {
		return 300
	}
	return int(secs)
}

// admit is the single submission path shared by POST /v1/jobs, the batch
// endpoint and nothing else: store lookup, peer fill-on-miss, singleflight
// coalescing, then — only for new local work — the admission queue. The
// returned status is http.StatusOK for a job born done (store or peer
// fill) and http.StatusAccepted for one attached to a flight. Every
// admission carries a trace context; the flight recorder logs its
// timeline under it.
func (s *Server) admit(req mom.JobRequest, key string, timeout time.Duration, tc traceCtx) (*job, int, error) {
	mode := "exact"
	if req.Sample().Enabled() {
		mode = "sampled"
	}
	s.metrics.submitted.With(req.Exp, mode).Inc()
	received := time.Now()

	// Local store hit: the job is born done, no worker consumed.
	if s.cfg.Store != nil {
		if val, ok := s.cfg.Store.Get(key); ok {
			fr := s.newFlightRecord(KindStoreHit, key, req.Exp, "", tc, received)
			s.flights.span(fr, "store", received, time.Now(), "hit")
			return s.bornDone(req, key, timeout, val, "", tc, fr), http.StatusOK, nil
		}
	}

	// A key owned by a peer: fill the local store from the owner on miss,
	// so a hot result replicates toward its demand; if the owner has not
	// computed it either, a proxy flight below forwards the work.
	var owner string
	if s.cfg.Peers != nil {
		if o := s.cfg.Peers.Owner(key); o != s.cfg.Peers.Self() {
			owner = o
			t0 := time.Now()
			if val, ok := s.peerStoreGet(owner, key, tc); ok {
				fr := s.newFlightRecord(KindPeerFill, key, req.Exp, owner, tc, received)
				s.flights.span(fr, "peer-fill", t0, time.Now(), owner)
				if s.cfg.Store != nil {
					w0 := time.Now()
					_ = s.cfg.Store.Fill(key, val)
					s.flights.span(fr, "store", w0, time.Now(), "fill")
					s.metrics.stages.Observe("store", time.Since(w0))
				}
				s.metrics.peerFills.Inc()
				return s.bornDone(req, key, timeout, val, owner, tc, fr), http.StatusOK, nil
			}
		}
	}

	now := time.Now()
	j := &job{
		reqID: tc.reqID, trace: tc.trace,
		key: key, req: req, timeout: timeout,
		state: StateQueued, created: now,
		done: make(chan struct{}),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return nil, 0, errDraining
	}

	// Singleflight: an identical request is already queued or running —
	// attach as a follower and share its execution.
	if fl := s.inflight[key]; fl != nil {
		j.fl = fl
		j.coalesced = true
		j.peer = fl.peer
		j.trace = fl.rec.trace // the flight's context wins: one stitched trace
		if fl.running {
			j.state = StateRunning
			j.started = now
		}
		fl.members = append(fl.members, j)
		s.register(j)
		s.mu.Unlock()
		s.flights.member(fl.rec, j.reqID, now)
		s.metrics.coalesced.Inc()
		s.logAdmit(j, "coalesced")
		return j, http.StatusAccepted, nil
	}

	kind := KindCompute
	if owner != "" {
		kind = KindProxy
	}
	fl := &flight{key: key, req: req, timeout: timeout, members: []*job{j}, peer: owner,
		rec: s.newFlightRecord(kind, key, req.Exp, owner, tc, received)}
	j.fl = fl
	j.peer = owner
	if owner != "" {
		// Peer-proxied work waits on the owner's pool, not ours: it runs
		// on its own goroutine instead of occupying a local worker.
		s.inflight[key] = fl
		s.register(j)
		s.workers.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.workers.Done()
			s.runProxy(fl)
		}()
		s.metrics.peerProxied.Inc()
		s.logAdmit(j, kind)
		return j, http.StatusAccepted, nil
	}
	select {
	case s.queue <- fl:
		s.inflight[key] = fl
		s.register(j)
	default:
		s.mu.Unlock()
		s.flights.abandon(fl.rec)
		return nil, 0, errQueueFull
	}
	s.mu.Unlock()
	s.logAdmit(j, kind)
	return j, http.StatusAccepted, nil
}

// newFlightRecord opens a recorder timeline for one admission.
func (s *Server) newFlightRecord(kind, key, exp, peer string, tc traceCtx, received time.Time) *flightRecord {
	fr := &flightRecord{
		trace: tc.trace, kind: kind, key: key, exp: exp, peer: peer,
		reqIDs: []string{tc.reqID}, start: received,
	}
	s.flights.open(fr)
	return fr
}

// bornDone registers a job that is done on arrival (store hit or peer
// store fill) and settles its flight record.
func (s *Server) bornDone(req mom.JobRequest, key string, timeout time.Duration, val []byte, peer string, tc traceCtx, fr *flightRecord) *job {
	now := time.Now()
	j := &job{
		reqID: tc.reqID, trace: tc.trace,
		key: key, req: req, timeout: timeout,
		state: StateDone, result: val, fromStore: true, peer: peer,
		created: now, started: now, finished: now,
		done: make(chan struct{}),
	}
	close(j.done)
	s.mu.Lock()
	s.register(j)
	s.mu.Unlock()
	s.flights.close(fr, StateDone, now)
	s.logAdmit(j, fr.kind)
	return j
}

// register assigns an id, indexes the job and prunes old finished
// records. Caller holds s.mu.
func (s *Server) register(j *job) {
	s.nextID++
	j.id = fmt.Sprintf("j%08d", s.nextID)
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	for len(s.jobs) > s.cfg.MaxJobs {
		pruned := false
		for i, id := range s.order {
			if old, ok := s.jobs[id]; ok && terminal(old.state) {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				pruned = true
				break
			}
		}
		if !pruned {
			break // everything live; keep the records
		}
	}
}

func terminal(state string) bool {
	return state == StateDone || state == StateFailed || state == StateCancelled
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	docs := make([]jobDoc, 0, len(s.order))
	for _, id := range s.order {
		if j, ok := s.jobs[id]; ok {
			docs = append(docs, s.doc(j))
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

func (s *Server) lookup(r *http.Request) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[r.PathValue("id")]
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.writeJob(w, http.StatusOK, j)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	state, result, fromStore, errMsg := j.state, j.result, j.fromStore, j.err
	s.mu.Unlock()
	switch state {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		if fromStore {
			w.Header().Set("X-Momserved-Store", "hit")
		} else {
			w.Header().Set("X-Momserved-Store", "miss")
		}
		w.Write(result)
	case StateFailed:
		httpError(w, http.StatusInternalServerError, "job failed: %s", errMsg)
	default:
		httpError(w, http.StatusConflict, "job is %s; poll /v1/jobs/%s until done", state, j.id)
	}
}

// handleCancel withdraws one submitter's interest in its flight. A
// follower detaches without disturbing the computation; the leader hands
// the flight to the next member (promotion) rather than failing the
// group; only when the last member leaves is the computation itself
// cancelled (running) or left for the worker to drop (queued).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r)
	if !ok {
		httpError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	var promoted bool
	s.mu.Lock()
	if fl := j.fl; fl != nil {
		wasLeader := len(fl.members) > 0 && fl.members[0] == j
		for i, m := range fl.members {
			if m == j {
				fl.members = append(fl.members[:i], fl.members[i+1:]...)
				break
			}
		}
		j.fl = nil
		j.state = StateCancelled
		j.err = "cancelled by submitter"
		if !fl.running {
			j.err = "cancelled before start"
		}
		j.finished = time.Now()
		close(j.done)
		switch {
		case len(fl.members) > 0:
			// Survivors keep the execution; if the leader left, the
			// next member now leads it.
			promoted = wasLeader
		case fl.running:
			fl.cancel() // last member gone: stop the work; finish() settles it
		default:
			// Queued with no members left. Keep it in inflight: a new
			// identical submission revives it (keeping its queue slot);
			// otherwise the worker drops it on dequeue.
		}
	}
	s.mu.Unlock()
	if promoted {
		s.metrics.promotions.Inc()
	}
	s.writeJob(w, http.StatusOK, j)
}

func (s *Server) worker() {
	defer s.workers.Done()
	for fl := range s.queue {
		s.runFlight(fl)
	}
}

// begin moves a flight into the running state, or reports false when
// every submitter cancelled while it waited. Members admitted later
// (followers) inherit the running state as they attach.
func (s *Server) begin(fl *flight) (context.Context, context.CancelFunc, bool) {
	s.mu.Lock()
	if len(fl.members) == 0 {
		delete(s.inflight, fl.key)
		s.mu.Unlock()
		s.flights.close(fl.rec, StateCancelled, time.Now())
		return nil, nil, false
	}
	ctx, cancel := context.WithTimeout(context.Background(), fl.timeout)
	fl.cancel = cancel
	fl.running = true
	fl.started = time.Now()
	for _, j := range fl.members {
		j.state = StateRunning
		j.started = fl.started
	}
	s.mu.Unlock()
	s.flights.span(fl.rec, "queue", fl.rec.start, fl.started, "")
	s.metrics.stages.Observe("queue", fl.started.Sub(fl.rec.start))
	return ctx, cancel, true
}

func (s *Server) runFlight(fl *flight) {
	ctx, cancel, ok := s.begin(fl)
	if !ok {
		return
	}
	defer cancel()

	out, err := s.cfg.Runner(ctx, fl.req)
	execEnd := time.Now()
	s.flights.span(fl.rec, "execute", fl.started, execEnd, "")
	s.metrics.stages.Observe("execute", execEnd.Sub(fl.started))
	ctxErr := ctx.Err()

	// Persist before the flight becomes observable as done, so a client
	// that polls done and immediately re-submits is guaranteed the store
	// hit. Best effort: a failed write only costs a future recompute.
	if err == nil && ctxErr == nil && s.cfg.Store != nil {
		_ = s.cfg.Store.Put(fl.key, out)
		now := time.Now()
		s.flights.span(fl.rec, "store", execEnd, now, "put")
		s.metrics.stages.Observe("store", now.Sub(execEnd))
	}
	s.finish(fl, out, err, ctxErr)
}

// finish settles a flight: every remaining member reaches the same
// terminal state, sharing one result slice — followers observe documents
// byte-identical to the leader's.
func (s *Server) finish(fl *flight, out []byte, err, ctxErr error) {
	state := StateDone
	var errMsg string
	switch {
	case err == nil && ctxErr == nil:
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || ctxErr != nil:
		state = StateCancelled
		reason := ctxErr
		if reason == nil {
			reason = err
		}
		errMsg = reason.Error()
	default:
		state = StateFailed
		errMsg = err.Error()
	}

	s.mu.Lock()
	delete(s.inflight, fl.key)
	now := time.Now()
	members := fl.members
	fl.members = nil
	for _, j := range members {
		j.fl = nil
		j.finished = now
		j.state = state
		j.err = errMsg
		if state == StateDone {
			j.result = out
		}
		close(j.done)
	}
	dur := now.Sub(fl.started)
	s.mu.Unlock()

	s.flights.close(fl.rec, state, now)
	s.logFinish(fl.rec, state, errMsg, now.Sub(fl.rec.start))
	s.metrics.finished.With(state).Inc()
	s.metrics.durations.Observe(fl.req.Exp, dur)
}

// jobDoc is the public JSON shape of a job record.
type jobDoc struct {
	ID        string         `json:"id"`
	RequestID string         `json:"request_id,omitempty"`
	Trace     string         `json:"trace,omitempty"`
	State     string         `json:"state"`
	Request   mom.JobRequest `json:"request"`
	Key       string         `json:"key"`
	FromStore bool           `json:"from_store"`
	Coalesced bool           `json:"coalesced,omitempty"`
	Peer      string         `json:"peer,omitempty"`
	Error     string         `json:"error,omitempty"`
	Created   time.Time      `json:"created"`
	Started   *time.Time     `json:"started,omitempty"`
	Finished  *time.Time     `json:"finished,omitempty"`
	ResultURL string         `json:"result_url,omitempty"`
}

// doc snapshots a job. Caller holds s.mu.
func (s *Server) doc(j *job) jobDoc {
	d := jobDoc{
		ID: j.id, RequestID: j.reqID, Trace: j.trace,
		State: j.state, Request: j.req, Key: j.key,
		FromStore: j.fromStore, Coalesced: j.coalesced, Peer: j.peer,
		Error: j.err, Created: j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		d.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		d.Finished = &t
	}
	if j.state == StateDone {
		d.ResultURL = "/v1/jobs/" + j.id + "/result"
	}
	return d
}

func (s *Server) writeJob(w http.ResponseWriter, code int, j *job) {
	s.mu.Lock()
	d := s.doc(j)
	s.mu.Unlock()
	writeJSON(w, code, d)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	writeJSON(w, code, map[string]string{"error": strings.TrimSpace(msg)})
}
