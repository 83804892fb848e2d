package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	mom "repro"
	"repro/internal/obs"
	"repro/internal/store"
)

// flightsPage mirrors the GET /debug/flights response shape.
type flightsPage struct {
	Flights []struct {
		Trace    string        `json:"trace"`
		Kind     string        `json:"kind"`
		Key      string        `json:"key"`
		Exp      string        `json:"exp"`
		State    string        `json:"state"`
		Peer     string        `json:"peer"`
		Requests []string      `json:"requests"`
		WallUS   int64         `json:"wall_us"`
		Spans    []mom.SpanDoc `json:"spans"`
	} `json:"flights"`
}

func fetchFlights(t *testing.T, ts *httptest.Server, query string) flightsPage {
	t.Helper()
	code, b := get(t, ts.URL+"/debug/flights"+query)
	if code != http.StatusOK {
		t.Fatalf("/debug/flights%s: status %d", query, code)
	}
	var page flightsPage
	if err := json.Unmarshal(b, &page); err != nil {
		t.Fatalf("/debug/flights%s: bad JSON: %v", query, err)
	}
	return page
}

// TestFlightRecorderEndToEnd: one computed job leaves one flight in the
// ring carrying the submission's request ID and trace, the expected stage
// spans, a telescoping timeline (every span fits inside the flight's
// wall-clock), and per-stage samples in /metrics.
func TestFlightRecorderEndToEnd(t *testing.T) {
	st, _ := store.Open(t.TempDir(), 0)
	srv := New(Config{Workers: 1, QueueCap: 4, Store: st,
		Runner: func(ctx context.Context, req mom.JobRequest) ([]byte, error) {
			time.Sleep(5 * time.Millisecond) // give the execute span real width
			return []byte("{}\n"), nil
		}})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	d, _ := post(t, ts, `{"exp":"fig5"}`)
	if d.RequestID == "" || d.Trace == "" {
		t.Fatalf("submission doc lacks identity: request_id=%q trace=%q", d.RequestID, d.Trace)
	}
	waitState(t, ts, d.ID, StateDone)

	page := fetchFlights(t, ts, "")
	if len(page.Flights) != 1 {
		t.Fatalf("flights after one job: %d, want 1", len(page.Flights))
	}
	fl := page.Flights[0]
	if fl.Kind != KindCompute || fl.State != StateDone || fl.Key != d.Key || fl.Trace != d.Trace {
		t.Fatalf("flight = kind %s state %s key %s trace %s, want compute/done for job %s/%s",
			fl.Kind, fl.State, fl.Key, fl.Trace, d.Key, d.Trace)
	}
	if len(fl.Requests) != 1 || fl.Requests[0] != d.RequestID {
		t.Fatalf("flight members %v, want [%s]", fl.Requests, d.RequestID)
	}

	// The compute path records exactly these stages, and every span must
	// telescope into the flight: non-negative offset, end within wall_us.
	bySpan := map[string]mom.SpanDoc{}
	for _, sp := range fl.Spans {
		if sp.StartUS < 0 || sp.StartUS+sp.DurUS > fl.WallUS {
			t.Errorf("span %s [%d,+%d]us escapes the flight's %dus wall-clock",
				sp.Name, sp.StartUS, sp.DurUS, fl.WallUS)
		}
		bySpan[sp.Name] = sp
	}
	for _, want := range []string{"queue", "execute", "store"} {
		if _, ok := bySpan[want]; !ok {
			t.Errorf("flight has no %q span (got %v)", want, fl.Spans)
		}
	}
	if bySpan["execute"].DurUS < 4000 {
		t.Errorf("execute span %dus, want >= 4000 (the runner sleeps 5ms)", bySpan["execute"].DurUS)
	}
	if sum := bySpan["queue"].DurUS + bySpan["execute"].DurUS + bySpan["store"].DurUS; sum > fl.WallUS {
		t.Errorf("stage durations sum to %dus > %dus wall-clock", sum, fl.WallUS)
	}

	// The same stages feed the per-stage histograms.
	for _, stage := range []string{"queue", "execute", "store"} {
		name := `momserved_stage_duration_seconds_count{stage="` + stage + `"}`
		if n := metricValue(t, ts, name); n < 1 {
			t.Errorf("%s = %g, want >= 1", name, n)
		}
	}
}

// TestFlightTraceAdoption: a well-formed Mom-Trace header is adopted as
// the submission's trace context; malformed ones are replaced, never
// echoed.
func TestFlightTraceAdoption(t *testing.T) {
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(nil)})
	defer srv.Shutdown(context.Background())

	mk := func(header string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
		if header != "" {
			r.Header.Set(TraceHeader, header)
		}
		return r
	}
	const valid = "deadbeefcafe0123"
	if got := adoptTrace(mk(valid)); got != valid {
		t.Errorf("valid header %q adopted as %q", valid, got)
	}
	for _, bad := range []string{"", "short", "UPPERHEX00AA11BB", "zzzzzzzzzzzz",
		"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef0"} {
		got := adoptTrace(mk(bad))
		if got == bad {
			t.Errorf("malformed header %q was adopted verbatim", bad)
		}
		if len(got) != 16 {
			t.Errorf("replacement for %q is %q, want a fresh 16-char id", bad, got)
		}
	}
}

// TestFlightRingBound: the completed ring holds the newest cap flights
// and releases the rest.
func TestFlightRingBound(t *testing.T) {
	r := newRecorder(4)
	base := time.Now()
	for i := 0; i < 10; i++ {
		fr := &flightRecord{trace: "t", kind: KindCompute, key: string(rune('a' + i)),
			start: base.Add(time.Duration(i) * time.Millisecond)}
		r.open(fr)
		r.close(fr, StateDone, base.Add(time.Duration(i+1)*time.Millisecond))
	}
	docs := r.snapshot("")
	if len(docs) != 4 {
		t.Fatalf("ring holds %d flights, want 4", len(docs))
	}
	if docs[0].Key != "j" || docs[3].Key != "g" {
		t.Fatalf("ring kept %s..%s newest-first, want j..g", docs[0].Key, docs[3].Key)
	}
}

// TestFlightsChromeExport: ?format=chrome emits a trace-event document
// (the same shape internal/obs exports) with one flight track.
func TestFlightsChromeExport(t *testing.T) {
	release := make(chan struct{})
	close(release)
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(release)})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	d, _ := post(t, ts, `{"exp":"fig5"}`)
	waitState(t, ts, d.ID, StateDone)

	code, b := get(t, ts.URL+"/debug/flights?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome export: status %d", code)
	}
	var doc struct {
		TraceEvents     []obs.TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("chrome export is not JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit %q, want ns", doc.DisplayTimeUnit)
	}
	var flights, stages int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Cat == "flight" && ev.Ph == "X":
			flights++
			if ev.Dur < 1 {
				t.Errorf("flight event %q has dur %d, want >= 1", ev.Name, ev.Dur)
			}
		case ev.Cat == "stage" && ev.Ph == "X":
			stages++
		}
	}
	if flights != 1 || stages < 2 {
		t.Fatalf("chrome export has %d flight / %d stage events, want 1 / >=2", flights, stages)
	}
}

// BenchmarkStoreHitAdmit measures the born-done fast path — store lookup,
// flight record, structured-log hook — that every deduplicated submission
// pays. The flight recorder and slog plumbing ride this path on every
// request, so it must stay cheap.
func BenchmarkStoreHitAdmit(b *testing.B) {
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	srv := New(Config{Workers: 1, QueueCap: 4, Store: st})
	defer srv.Shutdown(context.Background())

	req, err := mom.JobRequest{Exp: "fig5"}.Normalized()
	if err != nil {
		b.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Put(key, []byte("{}\n")); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, _, err := srv.admit(req, key, time.Minute, traceCtx{trace: "deadbeefcafe0123", reqID: "r0"})
		if err != nil || !j.fromStore {
			b.Fatalf("admit: err %v, fromStore %v", err, j != nil && j.fromStore)
		}
	}
}

// TestCoalescedSubmissionsShareOneFlight: followers join the leader's
// flight record — one timeline, every member's request ID on it — rather
// than opening flights of their own.
func TestCoalescedSubmissionsShareOneFlight(t *testing.T) {
	release := make(chan struct{})
	srv := New(Config{Workers: 1, QueueCap: 4, Runner: stubRunner(release)})
	defer srv.Shutdown(context.Background())
	ts := httptest.NewServer(srv)
	defer ts.Close()

	lead, _ := post(t, ts, `{"exp":"fig5"}`)
	waitState(t, ts, lead.ID, StateRunning)
	follow, _ := post(t, ts, `{"exp":"fig5"}`)
	if !follow.Coalesced {
		t.Fatal("second identical submission did not coalesce")
	}
	if follow.Trace != lead.Trace {
		t.Fatalf("follower trace %s differs from the flight's %s", follow.Trace, lead.Trace)
	}
	close(release)
	waitState(t, ts, lead.ID, StateDone)

	page := fetchFlights(t, ts, "")
	if len(page.Flights) != 1 {
		t.Fatalf("flights after a coalesced pair: %d, want 1", len(page.Flights))
	}
	fl := page.Flights[0]
	ids := map[string]bool{}
	for _, id := range fl.Requests {
		ids[id] = true
	}
	if !ids[lead.RequestID] || !ids[follow.RequestID] || len(fl.Requests) != 2 {
		t.Fatalf("flight members %v, want both %s and %s", fl.Requests, lead.RequestID, follow.RequestID)
	}
	found := false
	for _, sp := range fl.Spans {
		if sp.Name == "attach" && sp.Detail == follow.RequestID {
			found = true
		}
	}
	if !found {
		t.Fatalf("no attach span for follower %s in %v", follow.RequestID, fl.Spans)
	}
}
