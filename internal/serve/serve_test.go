package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	mom "repro"
	"repro/internal/store"
)

// post submits a body and returns the decoded job doc and status code.
func post(t *testing.T, ts *httptest.Server, body string) (jobDoc, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var d jobDoc
	raw, _ := io.ReadAll(resp.Body)
	_ = json.Unmarshal(raw, &d)
	return d, resp
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// waitState polls a job until it reaches want (or any terminal state).
func waitState(t *testing.T, ts *httptest.Server, id, want string) jobDoc {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		code, b := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, code, b)
		}
		var d jobDoc
		if err := json.Unmarshal(b, &d); err != nil {
			t.Fatal(err)
		}
		if d.State == want {
			return d
		}
		if terminal(d.State) {
			t.Fatalf("job %s reached %s (err %q), want %s", id, d.State, d.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return jobDoc{}
}

// metricValue extracts one sample from the /metrics exposition.
func metricValue(t *testing.T, ts *httptest.Server, name string) float64 {
	t.Helper()
	code, b := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatal(err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestEndToEndKernelJob runs the real runner: submit one kernel point,
// poll to done, fetch the result, then re-submit and require a store hit
// with a byte-identical body.
func TestEndToEndKernelJob(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(Config{Workers: 2, QueueCap: 8, Store: st})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const req = `{"exp":"kernel","kernel":"motion1","isa":"MOM","width":4,"scale":"test"}`
	d, resp := post(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", resp.StatusCode)
	}
	if d.FromStore {
		t.Fatal("first submit claimed a store hit")
	}
	done := waitState(t, ts, d.ID, StateDone)
	code, body1 := get(t, ts.URL+done.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	var doc map[string]any
	if err := json.Unmarshal(body1, &doc); err != nil {
		t.Fatalf("result is not JSON: %v", err)
	}
	if doc["schema"] != float64(mom.SchemaVersion) {
		t.Fatalf("result schema %v, want %d", doc["schema"], mom.SchemaVersion)
	}
	if doc["workload"] != "motion1" {
		t.Fatalf("result workload %v, want motion1", doc["workload"])
	}

	// Second submission: a store hit, born done, byte-identical.
	d2, resp2 := post(t, ts, req)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("re-submit: status %d, want 200", resp2.StatusCode)
	}
	if d2.State != StateDone || !d2.FromStore {
		t.Fatalf("re-submit: state=%s from_store=%v, want done from the store", d2.State, d2.FromStore)
	}
	if d2.Key != d.Key {
		t.Fatalf("same request hashed differently: %s vs %s", d2.Key, d.Key)
	}
	code, body2 := get(t, ts.URL+"/v1/jobs/"+d2.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("re-submit result: status %d", code)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("stored result differs from computed result:\n%s\nvs\n%s", body1, body2)
	}
	if hits := metricValue(t, ts, "momserved_store_hits_total"); hits < 1 {
		t.Fatalf("store hits %v, want >= 1", hits)
	}
}

// TestEquivalentRequestsShareAKey: normalisation clears fields the
// experiment does not consume, so spelling variants are one store entry.
func TestEquivalentRequestsShareAKey(t *testing.T) {
	st, _ := store.Open(t.TempDir(), 0)
	block := make(chan struct{})
	close(block)
	srv := New(Config{Workers: 1, QueueCap: 8, Store: st, Runner: stubRunner(block)})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	a, _ := post(t, ts, `{"exp":"fig5"}`)
	b, _ := post(t, ts, `{"exp":"fig5","scale":"test","width":8,"isa":"mmx"}`)
	if a.Key != b.Key {
		t.Fatalf("equivalent fig5 requests got distinct keys %s vs %s", a.Key, b.Key)
	}
}

// TestSampledRequestsKeyAndCounter: sampling parameters are part of the
// normalised request, so a sampled fig7 never aliases the exact store
// entry, and /metrics splits admitted jobs by experiment and mode.
func TestSampledRequestsKeyAndCounter(t *testing.T) {
	st, _ := store.Open(t.TempDir(), 0)
	block := make(chan struct{})
	close(block)
	srv := New(Config{Workers: 1, QueueCap: 8, Store: st, Runner: stubRunner(block)})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	exact, _ := post(t, ts, `{"exp":"fig7"}`)
	sampled, _ := post(t, ts, `{"exp":"fig7","sample_period":1501,"sample_warmup":100,"sample_interval":150}`)
	if exact.Key == sampled.Key {
		t.Fatalf("sampled fig7 shares key %s with the exact request", exact.Key)
	}
	again, _ := post(t, ts, `{"exp":"fig7","sample_period":1501,"sample_warmup":100,"sample_interval":150}`)
	if again.Key != sampled.Key {
		t.Fatalf("identical sampled requests got distinct keys %s vs %s", sampled.Key, again.Key)
	}

	// An inconsistent spec must be refused at submission.
	if _, resp := post(t, ts, `{"exp":"fig7","sample_period":100,"sample_interval":150}`); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid sample spec: status %d, want 400", resp.StatusCode)
	}

	if n := metricValue(t, ts, `momserved_jobs_submitted_total{exp="fig7",mode="exact"}`); n != 1 {
		t.Fatalf("exact fig7 submissions %v, want 1", n)
	}
	if n := metricValue(t, ts, `momserved_jobs_submitted_total{exp="fig7",mode="sampled"}`); n != 2 {
		t.Fatalf("sampled fig7 submissions %v, want 2", n)
	}
}

// stubRunner returns a Runner that blocks until release is closed (or the
// job context ends) and then emits a fixed document.
func stubRunner(release <-chan struct{}) Runner {
	return func(ctx context.Context, req mom.JobRequest) ([]byte, error) {
		select {
		case <-release:
			return []byte(`{"schema":1,"experiment":"` + req.Exp + `","rows":[]}` + "\n"), nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestQueueFull: with one busy worker and a one-slot queue, a third
// submission must be refused with 429 and a Retry-After hint — admission
// control, not unbounded buffering.
func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Workers: 1, QueueCap: 1, Runner: stubRunner(release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	defer close(release)

	first, _ := post(t, ts, `{"exp":"fig5"}`)
	waitState(t, ts, first.ID, StateRunning)
	if _, resp := post(t, ts, `{"exp":"fig7"}`); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d, want 202 (queued)", resp.StatusCode)
	}
	_, resp := post(t, ts, `{"exp":"latency"}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third submit: status %d, want 429", resp.StatusCode)
	}
	// The hint is computed from queue depth and drain rate, but must always
	// be a sane whole-second value in [1, 300].
	ra := resp.Header.Get("Retry-After")
	secs, err := strconv.Atoi(ra)
	if err != nil {
		t.Fatalf("Retry-After %q is not an integer: %v", ra, err)
	}
	if secs < 1 || secs > 300 {
		t.Fatalf("Retry-After %d outside [1, 300]", secs)
	}
}

// TestRetryAfterTracksBacklog: once the service has observed job
// durations, the hint scales with queue depth over drain rate instead of
// answering the constant 1.
func TestRetryAfterTracksBacklog(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 8, Runner: stubRunner(nil)})
	defer srv.Shutdown(context.Background())

	if got := srv.retryAfter(); got != 1 {
		t.Fatalf("empty-history hint %d, want 1", got)
	}
	// Pretend ten 4-second jobs have completed: avg 4s per job, one
	// worker, empty queue -> ceil(4 * 1 / 1) = 4.
	for i := 0; i < 10; i++ {
		srv.metrics.durations.Observe("fig5", 4*time.Second)
	}
	if got := srv.retryAfter(); got != 4 {
		t.Fatalf("hint with 4s average %d, want 4", got)
	}
	// A pathological average is clamped to five minutes.
	srv.metrics.durations.Observe("fig7", 24*time.Hour)
	if got := srv.retryAfter(); got != 300 {
		t.Fatalf("clamped hint %d, want 300", got)
	}
}

// TestCancelMidRun: DELETE on a running job cancels its context; the job
// reports state cancelled and its result endpoint says so.
func TestCancelMidRun(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	defer close(release) // LIFO: unblock the stub before draining

	d, _ := post(t, ts, `{"exp":"fig5"}`)
	waitState(t, ts, d.ID, StateRunning)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+d.ID, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
	}
	got := waitState(t, ts, d.ID, StateCancelled)
	if got.Error == "" {
		t.Fatal("cancelled job carries no reason")
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/"+d.ID+"/result"); code != http.StatusConflict {
		t.Fatalf("result of cancelled job: status %d, want 409", code)
	}
}

// TestCancelQueuedJob: DELETE on a job still waiting for a worker
// cancels it instantly; the worker later skips it.
func TestCancelQueuedJob(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	defer close(release) // LIFO: unblock the stub before draining

	busy, _ := post(t, ts, `{"exp":"fig5"}`)
	waitState(t, ts, busy.ID, StateRunning)
	queued, _ := post(t, ts, `{"exp":"fig7"}`)
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+queued.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var d jobDoc
	_ = json.NewDecoder(resp.Body).Decode(&d)
	resp.Body.Close()
	if d.State != StateCancelled {
		t.Fatalf("queued job after DELETE: state %s, want cancelled", d.State)
	}
}

// TestDeadlineExpires: a job whose timeout_ms elapses mid-run is
// cancelled, not failed.
func TestDeadlineExpires(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	defer close(release) // LIFO: unblock the stub before draining

	d, resp := post(t, ts, `{"exp":"fig5","timeout_ms":30}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	got := waitState(t, ts, d.ID, StateCancelled)
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("expired job error %q, want a deadline reason", got.Error)
	}
}

// TestHugeTimeoutClamps: a timeout_ms too large for a time.Duration clamps
// to MaxTimeout instead of wrapping to a deadline in the past, so the job
// runs under the ceiling rather than being cancelled at once.
func TestHugeTimeoutClamps(t *testing.T) {
	release := make(chan struct{})
	started := make(chan context.Context, 1)
	block := stubRunner(release)
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: func(ctx context.Context, req mom.JobRequest) ([]byte, error) {
		started <- ctx
		return block(ctx, req)
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())
	defer close(release) // LIFO: unblock the stub before draining

	if got := srv.clampTimeout(math.MaxInt64); got != srv.cfg.MaxTimeout {
		t.Fatalf("clampTimeout(MaxInt64) = %v, want MaxTimeout %v", got, srv.cfg.MaxTimeout)
	}
	before := time.Now()
	d, resp := post(t, ts, `{"exp":"fig5","timeout_ms":9223372036854775807}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	ctx := <-started
	if err := ctx.Err(); err != nil {
		t.Fatalf("the job's context ended at once: %v", err)
	}
	if dl, ok := ctx.Deadline(); !ok || dl.Before(before.Add(srv.cfg.MaxTimeout)) {
		t.Fatalf("job deadline %v (set %v), want MaxTimeout (%v) from submission", dl, ok, srv.cfg.MaxTimeout)
	}
	waitState(t, ts, d.ID, StateRunning)
}

// TestGracefulShutdownDrains: Shutdown refuses new work but finishes
// every accepted job — running and queued — before returning.
func TestGracefulShutdownDrains(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 8, Runner: func(ctx context.Context, req mom.JobRequest) ([]byte, error) {
		time.Sleep(20 * time.Millisecond)
		return []byte("{}\n"), nil
	}})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	var ids []string
	for i := 0; i < 4; i++ {
		d, resp := post(t, ts, `{"exp":"fig5"}`)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, d.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	for _, id := range ids {
		code, b := get(t, ts.URL+"/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("post-drain poll: status %d", code)
		}
		var d jobDoc
		_ = json.Unmarshal(b, &d)
		if d.State != StateDone {
			t.Fatalf("job %s after drain: state %s, want done", id, d.State)
		}
	}
	if _, resp := post(t, ts, `{"exp":"fig5"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while drained: status %d, want 503", resp.StatusCode)
	}
}

// TestBadRequests: malformed bodies and unknown experiments are 400s with
// the valid vocabulary in the message; unknown job ids are 404s.
func TestBadRequests(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(nil)})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	for _, body := range []string{
		`not json`,
		`{"exp":"nope"}`,
		`{"exp":"kernel","kernel":"nope"}`,
		`{"exp":"fig5","scale":"huge"}`,
		`{"exp":"kernel","kernel":"motion1","width":3}`,
		`{"exp":"fig5","bogus_field":1}`,
	} {
		if _, resp := post(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if code, _ := get(t, ts.URL+"/v1/jobs/j99999999"); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
}

// TestMetricsExposition pins the /metrics surface: on a node with a result
// store, a trace store and a two-node peer set, after one finished job,
// every TYPE line and every series identity (name and label set, sample
// value stripped) in testdata/metrics_series.txt is still exposed, each
// sample follows its own family's TYPE line, and every family has a
// non-empty HELP.
func TestMetricsExposition(t *testing.T) {
	release := make(chan struct{})
	close(release)
	ts, srvs := twoNodes(t, func(int) Config {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		tst, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Workers: 1, QueueCap: 4, Store: st, TraceStore: tst, Runner: stubRunner(release)}
	})
	body, _ := requestOwnedBy(t, srvs[0].cfg.Peers, srvs[0].cfg.Peers.Self())
	d, _ := post(t, ts[0], body)
	waitState(t, ts[0], d.ID, StateDone)
	if v := metricValue(t, ts[0], "momserved_queue_capacity"); v != 4 {
		t.Fatalf("queue capacity metric %v, want 4", v)
	}

	code, b := get(t, ts[0].URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: status %d", code)
	}
	got := map[string]bool{}
	help := map[string]string{}
	var family string
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, text, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			help[name] = strings.TrimSpace(text)
		case strings.HasPrefix(line, "# TYPE "):
			family = strings.Fields(line)[2]
			if help[family] == "" {
				t.Errorf("family %s has no HELP", family)
			}
			got[line] = true
		default:
			id := line[:strings.LastIndexByte(line, ' ')]
			name, _, _ := strings.Cut(id, "{")
			if name != family && !strings.HasPrefix(name, family+"_") {
				t.Errorf("sample %s outside its family (after TYPE %s)", id, family)
			}
			got[id] = true
		}
	}
	want, err := os.ReadFile("testdata/metrics_series.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(want)), "\n") {
		if !got[line] {
			t.Errorf("/metrics lost %q", line)
		}
	}
}
