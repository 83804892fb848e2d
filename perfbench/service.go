package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	mom "repro"
	"repro/internal/serve"
	"repro/internal/store"
)

// service drives the job server over loopback HTTP with a closed loop of
// two clients submitting kernel point jobs: each point computed once and
// re-submitted as store hits.
var service = workload{
	name:    "service",
	setup:   setupService,
	measure: measureService,
	layers:  layersService,
}

const (
	svcClients = 2
	svcWorkers = 2
	// pollPeriod spaces a client's status polls while its job computes.
	// compute_* read the server's own created and finished stamps, so the
	// period cannot quantise them; it only bounds the client's wasted wait.
	pollPeriod = 2 * time.Millisecond
)

type svcState struct {
	unitState
	traceStore *store.Store
}

// setupService opens the trace-artifact store and captures every kernel
// trace through it, so each capture is written through to disk.
func setupService(b *bench, parent int) (any, error) {
	ts, err := mom.OpenTraceArtifacts(filepath.Join(b.work, "traces"), 0)
	if err != nil {
		return nil, err
	}
	us := servicePoints()
	trs, err := b.acquire(us, parent)
	return &svcState{unitState: unitState{units: us, traces: trs}, traceStore: ts}, err
}

// svcEnv is what a round serves: its points, their sample spec, and the
// golden workload their documents are pinned under.
type svcEnv struct {
	points     []unit
	sp         mom.SampleSpec
	gold       string
	traceStore *store.Store
}

// jobDoc is the part of the server's job document the clients read.
type jobDoc struct {
	ID        string    `json:"id"`
	State     string    `json:"state"`
	FromStore bool      `json:"from_store"`
	Error     string    `json:"error"`
	Created   time.Time `json:"created"`
	Finished  time.Time `json:"finished"`
}

// flightDoc is the part of a /debug/flights record the traced run reads.
type flightDoc struct {
	Kind   string        `json:"kind"`
	Key    string        `json:"key"`
	WallUS int64         `json:"wall_us"`
	Spans  []mom.SpanDoc `json:"spans"`
}

// svcResult is one client operation's outcome.
type svcResult struct {
	op      svcOp
	rt      time.Duration // client round trip, submission to result body
	compute time.Duration // server created -> finished (compute jobs)
	refused bool
}

// svcRound is one round on a fresh server and result store.
type svcRound struct {
	wall    time.Duration
	results []svcResult
	flights []flightDoc
	stats   store.Stats
	getUS   []float64 // direct store reads of every stored document
	putUS   []float64 // direct store rewrites of every stored document
}

// serviceRound starts a server on a fresh result store behind a loopback
// listener, runs the clients' schedules against it, and shuts it down.
func (b *bench) serviceRound(env *svcEnv, sched [][]svcOp, rec *recorder, traced bool) (*svcRound, error) {
	dir, err := os.MkdirTemp(b.work, "results-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(dir, 0)
	if err != nil {
		return nil, err
	}
	srv := serve.New(serve.Config{Workers: svcWorkers, Store: st, TraceStore: env.traceStore, FlightLog: 1 << 14})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	hs := &http.Server{Handler: srv}
	served := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(served)
	}()
	tr := &http.Transport{MaxConnsPerHost: svcClients, MaxIdleConnsPerHost: svcClients}
	c := &svcClient{hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, base: "http://" + ln.Addr().String(), env: env, b: b}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
		srv.Shutdown(ctx)
		tr.CloseIdleConnections()
	}()

	live := newLiveGuard()
	r := &svcRound{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	t0 := time.Now()
	for ci, ops := range sched {
		wg.Add(1)
		go func(ci int, ops []svcOp) {
			defer wg.Done()
			for _, o := range ops {
				res, err := c.do(o, rec, ci)
				b.op(err)
				if err == nil || res.refused {
					mu.Lock()
					r.results = append(r.results, res)
					mu.Unlock()
				}
			}
		}(ci, ops)
	}
	wg.Wait()
	r.wall = time.Since(t0)
	if err := live.check("service round"); err != nil {
		b.op(err)
	}
	r.stats = st.Stats()
	if traced {
		if r.flights, err = c.flights(); err != nil {
			return nil, err
		}
		// The store layer alone, on the documents this round stored.
		for _, p := range env.points {
			key, err := p.request(env.sp).Key()
			if err != nil {
				return nil, err
			}
			var doc []byte
			var ok bool
			d := rec.timed("store.Get", 0, func(int) { doc, ok = st.Get(key) })
			if !ok {
				continue
			}
			r.getUS = append(r.getUS, us(d))
			d = rec.timed("store.Put", 0, func(int) { err = st.Put(key, doc) })
			if err != nil {
				return nil, err
			}
			r.putUS = append(r.putUS, us(d))
		}
	}
	return r, nil
}

type svcClient struct {
	hc   *http.Client
	base string
	env  *svcEnv
	b    *bench
}

// call makes one HTTP request inside a span and decodes a JSON reply.
func (c *svcClient) call(rec *recorder, track, parent int, method, path string, body []byte, out any) (int, []byte, error) {
	var code int
	var data []byte
	var err error
	rec.timedOn(track, method+" "+pathName(path), parent, func(int) {
		var req *http.Request
		req, err = http.NewRequest(method, c.base+path, bytes.NewReader(body))
		if err != nil {
			return
		}
		var resp *http.Response
		resp, err = c.hc.Do(req)
		if err != nil {
			return
		}
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		code = resp.StatusCode
	})
	if err == nil && out != nil && code < 300 {
		err = json.Unmarshal(data, out)
	}
	return code, data, err
}

// pathName maps a request path to its route, so span names stay few.
func pathName(p string) string {
	switch {
	case p == "/v1/jobs":
		return "/v1/jobs"
	case len(p) > 7 && p[len(p)-7:] == "/result":
		return "/v1/jobs/{id}/result"
	case len(p) > 9 && p[:9] == "/v1/jobs/":
		return "/v1/jobs/{id}"
	}
	return p
}

// do runs one submission: POST, poll until terminal, GET the result, and
// check it against the golden.
func (c *svcClient) do(o svcOp, rec *recorder, track int) (svcResult, error) {
	res := svcResult{op: o}
	p := c.env.points[o.Point]
	body, err := json.Marshal(p.request(c.env.sp))
	if err != nil {
		return res, err
	}
	var opErr error
	var doc []byte
	res.rt = rec.timedOn(track, "job "+p.ID, 0, func(parent int) {
		var j jobDoc
		code, data, err := c.call(rec, track, parent, "POST", "/v1/jobs", body, &j)
		switch {
		case err != nil:
			opErr = err
			return
		case code == http.StatusTooManyRequests:
			res.refused = true
			opErr = fmt.Errorf("%s: refused (429)", p.ID)
			return
		case code != http.StatusOK && code != http.StatusAccepted:
			opErr = fmt.Errorf("%s: submit: HTTP %d: %s", p.ID, code, bytes.TrimSpace(data))
			return
		}
		if o.Hit && (code != http.StatusOK || !j.FromStore) {
			opErr = fmt.Errorf("%s: re-submission was not a store hit (HTTP %d, from_store %v)", p.ID, code, j.FromStore)
			return
		}
		for j.State == serve.StateQueued || j.State == serve.StateRunning {
			time.Sleep(pollPeriod)
			if _, _, err := c.call(rec, track, parent, "GET", "/v1/jobs/"+j.ID, nil, &j); err != nil {
				opErr = err
				return
			}
		}
		if j.State != serve.StateDone {
			opErr = fmt.Errorf("%s: job %s: %s", p.ID, j.State, j.Error)
			return
		}
		if !o.Hit {
			res.compute = j.Finished.Sub(j.Created)
		}
		code, doc, err = c.call(rec, track, parent, "GET", "/v1/jobs/"+j.ID+"/result", nil, nil)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("%s: result: HTTP %d", p.ID, code)
		}
		opErr = err
	})
	if opErr != nil {
		return res, opErr
	}
	return res, c.b.gold.checkDoc(c.env.gold, p.ID, doc)
}

// flights reads the server's completed-flight ring.
func (c *svcClient) flights() ([]flightDoc, error) {
	var out struct {
		Flights []flightDoc `json:"flights"`
	}
	code, _, err := c.call(nil, 0, 0, "GET", "/debug/flights", nil, &out)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/debug/flights: HTTP %d", code)
	}
	return out.Flights, err
}

func measureService(b *bench, stAny any, deadline time.Time) error {
	st := stAny.(*svcState)
	env := &svcEnv{points: st.units, gold: "service", traceStore: st.traceStore}
	hits, computes := newFastest(), newFastest()
	var bestRate float64
	var last time.Duration
	var walls []float64
	rounds := 0
	for rounds == 0 || time.Now().Add(last).Before(deadline) {
		r, err := b.serviceRound(env, serviceSchedule(b.rng, len(env.points), svcClients), nil, false)
		if err != nil {
			return err
		}
		rounds++
		last = r.wall
		walls = append(walls, r.wall.Seconds())
		for _, res := range r.results {
			id := env.points[res.op.Point].ID
			switch {
			case res.refused:
			case res.op.Hit:
				hits.add(id, res.rt)
			default:
				computes.add(id, res.compute)
			}
		}
		bestRate = max(bestRate, float64(len(r.results))/r.wall.Seconds())
		b.runHostRef()
	}
	var ids []string
	for _, p := range env.points {
		ids = append(ids, p.ID)
	}
	b.logf("service: %d rounds of %d clients on %d workers, %d distinct points, round walls %s s",
		rounds, svcClients, svcWorkers, len(ids), fmtList(walls, "%.3f"))
	if err := b.setPercentiles("hit", hits, ids); err != nil {
		return err
	}
	if err := b.setPercentiles("compute", computes, ids); err != nil {
		return err
	}
	b.logf("jobs_per_s: submissions of the fastest round over its wall time, of %d rounds", rounds)
	b.set("jobs_per_s", bestRate, "1/s")
	return b.setPeakRSS()
}

// setPercentiles sets <kind>_p50_ms and <kind>_p95_ms over the per-key
// fastest times.
func (b *bench) setPercentiles(kind string, f *fastest, ids []string) error {
	xs := f.valuesMS(ids)
	_, reps := f.sum(ids)
	for _, q := range []float64{0.50, 0.95} {
		v, n, err := percentile(xs, q)
		if err != nil {
			return fmt.Errorf("%s: %w", kind, err)
		}
		name := fmt.Sprintf("%s_p%.0f_ms", kind, q*100)
		b.logf("%s: over %d keys' fastest of >= %d repeats", name, n, reps)
		b.set(name, v, "ms")
	}
	return nil
}

func layersService(b *bench, stAny any, deadline time.Time) error {
	st := stAny.(*svcState)
	env := &svcEnv{points: st.units, gold: "service", traceStore: st.traceStore}
	start := time.Now()
	roundsEnd := start.Add(deadline.Sub(start) * 2 / 5)
	var traced []*svcRound
	var untraced time.Duration
	// Rounds alternate untraced and traced, for the tracing overhead.
	for i := 0; i < 2 || time.Now().Before(roundsEnd); i++ {
		tracedRound := i%2 == 1
		var rec *recorder
		if tracedRound {
			rec = b.rec
		}
		r, err := b.serviceRound(env, serviceSchedule(b.rng, len(env.points), svcClients), rec, tracedRound)
		if err != nil {
			return err
		}
		if tracedRound {
			traced = append(traced, r)
		} else if untraced == 0 || r.wall < untraced {
			untraced = r.wall
		}
		b.runHostRef()
	}
	if err := b.serveMetrics(env, traced); err != nil {
		return err
	}
	b.serviceClosure(traced[len(traced)-1], untraced)
	live := newLiveGuard()
	p := newLayerProbe(b, st.traces, mom.SampleSpec{}, "service", func(u unit, rec *recorder, parent int) (time.Duration, error) {
		t, _, err := b.exactUnit("service", u, live, rec, parent)
		return t.wall, err
	})
	if err := p.run(st.units, time.Now(), deadline); err != nil {
		return err
	}
	p.report()
	p.closureExact()
	return p.facts(st.units)
}
