package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/store"
)

// postBatch submits one batch body and returns the decoded item list.
func postBatch(t *testing.T, ts *httptest.Server, body string) ([]BatchItem, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs:batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out BatchResponse
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return out.Jobs, resp
}

// TestBatchDedupAndAdmit drives every per-item outcome through one batch:
// fresh admission, within-batch duplicate (two requests that normalise to
// the same key), coalescing with a job already in flight, and a per-item
// validation error that must not fail its siblings.
func TestBatchDedupAndAdmit(t *testing.T) {
	release := make(chan struct{})
	var calls int32
	srv := New(Config{Workers: 1, QueueCap: 8, Runner: countingRunner(&calls, release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	busy, _ := post(t, ts, `{"exp":"fetch"}`)
	waitState(t, ts, busy.ID, StateRunning)
	inflight, _ := post(t, ts, `{"exp":"latency"}`) // queued flight to coalesce with

	// fig5 ignores width, so items 0 and 1 are the same computation.
	items, resp := postBatch(t, ts, `{"jobs":[
		{"exp":"fig5"},
		{"exp":"fig5","width":8},
		{"exp":"latency"},
		{"exp":"bogus"},
		{"exp":"fig7"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, want 200", resp.StatusCode)
	}
	if len(items) != 5 {
		t.Fatalf("batch answered %d items, want 5", len(items))
	}
	for i, it := range items {
		if it.Index != i {
			t.Fatalf("item %d carries index %d", i, it.Index)
		}
	}
	if items[0].ID == "" || items[0].State != StateQueued || items[0].Duplicate || items[0].Coalesced {
		t.Fatalf("fresh item 0 = %+v", items[0])
	}
	if !items[1].Duplicate || items[1].ID != items[0].ID || items[1].Key != items[0].Key {
		t.Fatalf("width-variant fig5 not deduplicated within the batch: %+v vs %+v", items[1], items[0])
	}
	if !items[2].Coalesced || items[2].ID == inflight.ID || items[2].ID == "" {
		t.Fatalf("latency item did not coalesce with the in-flight job: %+v", items[2])
	}
	if items[3].Error == "" || !strings.Contains(items[3].Error, "unknown experiment") {
		t.Fatalf("invalid item error %q", items[3].Error)
	}
	if items[3].ID != "" {
		t.Fatal("invalid item was assigned a job id")
	}
	if items[4].ID == "" || items[4].Duplicate || items[4].Coalesced {
		t.Fatalf("fresh item 4 = %+v", items[4])
	}

	if v := metricValue(t, ts, "momserved_batch_requests_total"); v != 1 {
		t.Fatalf("batch request counter %g, want 1", v)
	}
	if v := metricValue(t, ts, "momserved_batch_jobs_total"); v != 5 {
		t.Fatalf("batch item counter %g, want 5", v)
	}
	if v := metricValue(t, ts, "momserved_dedup_coalesced_total"); v != 1 {
		t.Fatalf("coalesced counter %g, want 1 (the latency item)", v)
	}

	close(release)
	for _, id := range []string{items[0].ID, items[2].ID, items[4].ID, inflight.ID, busy.ID} {
		waitState(t, ts, id, StateDone)
	}
	// fetch + latency + fig5 + fig7: the duplicate and the coalesced item
	// never reached a worker.
	if got := atomic.LoadInt32(&calls); got != 4 {
		t.Fatalf("runner executed %d times, want 4", got)
	}
}

// TestBatchStoreHit: batch items resolve against the result store like
// single submissions — a stored key is born done with from_store set.
func TestBatchStoreHit(t *testing.T) {
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	srv := New(Config{Workers: 1, QueueCap: 8, Store: st, Runner: countingRunner(&calls, nil)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	d, _ := post(t, ts, `{"exp":"fig5"}`)
	waitState(t, ts, d.ID, StateDone)
	items, _ := postBatch(t, ts, `{"jobs":[{"exp":"fig5"}]}`)
	if len(items) != 1 || !items[0].FromStore || items[0].State != StateDone {
		t.Fatalf("stored key via batch = %+v, want from_store done", items)
	}
	if got := atomic.LoadInt32(&calls); got != 1 {
		t.Fatalf("runner executed %d times, want 1", got)
	}
}

// TestBatchQueueFullRetryAfter: a batch containing refused items answers
// 200 with the per-item queue-full error AND a Retry-After header, so a
// retrying client knows both which items to resubmit and when.
func TestBatchQueueFullRetryAfter(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Workers: 1, QueueCap: 1, Runner: countingRunner(new(int32), release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer func() { close(release); srv.Shutdown(context.Background()) }()

	busy, _ := post(t, ts, `{"exp":"fetch"}`)
	waitState(t, ts, busy.ID, StateRunning)
	post(t, ts, `{"exp":"latency"}`) // fills the 1-slot queue

	items, resp := postBatch(t, ts, `{"jobs":[{"exp":"latency"},{"exp":"fig5"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch with refused item: status %d, want 200", resp.StatusCode)
	}
	if !items[0].Coalesced || items[0].Error != "" {
		t.Fatalf("queued-duplicate item should coalesce, got %+v", items[0])
	}
	if items[1].Error != ErrMsgQueueFull {
		t.Fatalf("refused item error %q, want %q", items[1].Error, ErrMsgQueueFull)
	}
	ra := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After header %q, want a positive integer", ra)
	}
}

// TestBatchValidation: malformed envelopes are refused whole; size and
// emptiness are policy, not per-item errors.
func TestBatchValidation(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 8, Runner: countingRunner(new(int32), nil)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	for name, body := range map[string]string{
		"empty list":    `{"jobs":[]}`,
		"no jobs field": `{}`,
		"bad json":      `{"jobs":`,
		"unknown field": `{"jobs":[{"exp":"fig5"}],"nope":1}`,
	} {
		if _, resp := postBatch(t, ts, body); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	over := `{"jobs":[` + strings.Repeat(`{"exp":"fig5"},`, maxBatchItems) + `{"exp":"fig5"}]}`
	if _, resp := postBatch(t, ts, over); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized batch: status %d, want 400", resp.StatusCode)
	}
}

// TestBodyLimit bounds both POST bodies at maxBodyBytes: a batch of
// maxBatchItems of the longest valid item passes, a body padded to exactly
// the limit is decoded, and one byte more is answered 413 on both
// endpoints.
func TestBodyLimit(t *testing.T) {
	release := make(chan struct{})
	close(release)
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(release)})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Shutdown(context.Background())

	// hotspots validates width and the sample fields, so those take their
	// widest valid values; every other field takes its longest name.
	item := `{"exp":"hotspots","scale":"bench","width":8,"isa":"Alpha","mem":"collapsing",` +
		`"kernel":"ltpparameters","app":"mpeg2encode","sample_period":18446744073709551615,` +
		`"sample_warmup":9000000000000000000,"sample_interval":9000000000000000000,"sample_par":9223372036854775807}`
	body := `{"jobs":[` + strings.Repeat(item+",", maxBatchItems-1) + item + `],"timeout_ms":9223372036854775807}`
	if len(body) > maxBodyBytes {
		t.Fatalf("maximal batch is %d bytes, over the %d-byte limit", len(body), maxBodyBytes)
	}
	items, resp := postBatch(t, ts, body)
	if resp.StatusCode != http.StatusOK || len(items) != maxBatchItems {
		t.Fatalf("maximal batch: status %d with %d items, want 200 with %d", resp.StatusCode, len(items), maxBatchItems)
	}
	for _, it := range items {
		if it.Error != "" || it.ID == "" {
			t.Fatalf("maximal batch item %d = %+v", it.Index, it)
		}
	}

	// pad widens a JSON object to n bytes with spaces before its closing
	// brace, so the decoder must read every byte to finish the value.
	pad := func(obj string, n int) string {
		return obj[:len(obj)-1] + strings.Repeat(" ", n-len(obj)) + "}"
	}
	for _, c := range []struct{ path, obj string }{
		{"/v1/jobs", `{"exp":"fig5"}`},
		{"/v1/jobs:batch", `{"jobs":[{"exp":"fig5"}]}`},
	} {
		for _, n := range []int{maxBodyBytes, maxBodyBytes + 1} {
			resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(pad(c.obj, n)))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			tooLarge := resp.StatusCode == http.StatusRequestEntityTooLarge
			if tooLarge != (n > maxBodyBytes) || (!tooLarge && resp.StatusCode >= 300) {
				t.Errorf("%s with a %d-byte body: status %d", c.path, n, resp.StatusCode)
			}
		}
	}
}
