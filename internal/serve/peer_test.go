package serve

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	mom "repro"
	"repro/internal/store"
)

func TestNewPeerSetValidation(t *testing.T) {
	for name, c := range map[string]struct {
		self  string
		peers []string
	}{
		"single peer":       {"http://a:1", []string{"http://a:1"}},
		"self not a member": {"http://c:1", []string{"http://a:1", "http://b:1"}},
		"empty self":        {"", []string{"http://a:1", "http://b:1"}},
		"duplicate peer":    {"http://a:1", []string{"http://a:1", "http://a:1/"}},
		"relative url":      {"http://a:1", []string{"http://a:1", "not-a-base-url"}},
	} {
		if _, err := NewPeerSet(c.self, c.peers); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	ps, err := NewPeerSet("http://a:1/", []string{"http://b:1/", " http://a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Self() != "http://a:1" || ps.Size() != 2 {
		t.Fatalf("canonicalisation: self %q size %d", ps.Self(), ps.Size())
	}
}

// TestRendezvousOwner: every node must compute the same owner for a key
// regardless of list order, and the hash must spread keys across all
// peers.
func TestRendezvousOwner(t *testing.T) {
	peers := []string{"http://a:1", "http://b:1", "http://c:1"}
	ps1, err := NewPeerSet("http://a:1", peers)
	if err != nil {
		t.Fatal(err)
	}
	ps2, err := NewPeerSet("http://b:1", []string{"http://c:1", "http://a:1", "http://b:1"})
	if err != nil {
		t.Fatal(err)
	}
	byOwner := map[string]int{}
	for i := 0; i < 256; i++ {
		key := fmt.Sprintf("%064x", i)
		o := ps1.Owner(key)
		if o2 := ps2.Owner(key); o2 != o {
			t.Fatalf("key %s: owners disagree across list orders (%s vs %s)", key, o, o2)
		}
		if ps1.Owner(key) != o {
			t.Fatalf("key %s: owner not stable", key)
		}
		byOwner[o]++
	}
	for _, p := range peers {
		if byOwner[p] == 0 {
			t.Errorf("peer %s owns none of 256 keys", p)
		}
	}
}

// twoNodes starts a 2-node cluster on real loopback listeners (allocated
// up front, so each node's Config can name the other's URL before either
// server exists). mk builds node i's Config; Peers is filled in here.
func twoNodes(t *testing.T, mk func(i int) Config) (ts [2]*httptest.Server, srvs [2]*Server) {
	t.Helper()
	var lns [2]net.Listener
	var urls [2]string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	for i := range lns {
		ps, err := NewPeerSet(urls[i], urls[:])
		if err != nil {
			t.Fatal(err)
		}
		cfg := mk(i)
		cfg.Peers = ps
		srvs[i] = New(cfg)
		hs := httptest.NewUnstartedServer(srvs[i])
		hs.Listener.Close()
		hs.Listener = lns[i]
		hs.Start()
		ts[i] = hs
		srv := srvs[i]
		t.Cleanup(func() { hs.Close() })
		t.Cleanup(func() { srv.Shutdown(context.Background()) })
	}
	return ts, srvs
}

// requestOwnedBy finds a kernel-point request whose content-address key
// the given node owns — listener ports vary per run, so ownership must be
// discovered, not hard-coded.
func requestOwnedBy(t *testing.T, ps *PeerSet, owner string) (body, key string) {
	t.Helper()
	for _, w := range []int{4, 1, 2, 8} {
		for _, k := range mom.KernelNames() {
			req := mom.JobRequest{Exp: "kernel", Kernel: k, Width: w}
			kk, err := req.Key()
			if err != nil {
				t.Fatal(err)
			}
			if ps.Owner(kk) == owner {
				return fmt.Sprintf(`{"exp":"kernel","kernel":%q,"width":%d}`, k, w), kk
			}
		}
	}
	t.Fatalf("no candidate request hashes to %s", owner)
	return "", ""
}

// TestPeerProxyComputesOnOwner: a node given a key it does not own
// forwards the flight to the owner, which computes it once; the result
// flows back, fills the submitting node's store, and the next submission
// there is a pure local hit.
func TestPeerProxyComputesOnOwner(t *testing.T) {
	var calls [2]int32
	ts, srvs := twoNodes(t, func(i int) Config {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Workers: 1, QueueCap: 8, Store: st, Runner: countingRunner(&calls[i], nil)}
	})
	owner := srvs[1].cfg.Peers.Self()
	body, key := requestOwnedBy(t, srvs[1].cfg.Peers, owner)

	d, resp := post(t, ts[0], body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxy submit: status %d, want 202", resp.StatusCode)
	}
	if d.Peer != owner {
		t.Fatalf("proxied job names peer %q, want %q", d.Peer, owner)
	}
	done := waitState(t, ts[0], d.ID, StateDone)
	code, got := get(t, ts[0].URL+done.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("proxied result: status %d", code)
	}
	if atomic.LoadInt32(&calls[0]) != 0 || atomic.LoadInt32(&calls[1]) != 1 {
		t.Fatalf("runner calls = %d local / %d owner, want 0 / 1",
			calls[0], calls[1])
	}

	// The result landed in node 0's own store (fill-on-completion)…
	code, filled := get(t, ts[0].URL+"/v1/store/"+key)
	if code != http.StatusOK || !bytes.Equal(filled, got) {
		t.Fatalf("local store after proxy: status %d, identical %v", code, bytes.Equal(filled, got))
	}
	// …so resubmitting is a local hit that consults no peer.
	d2, resp2 := post(t, ts[0], body)
	if resp2.StatusCode != http.StatusOK || !d2.FromStore || d2.Peer != "" {
		t.Fatalf("resubmission = status %d from_store %v peer %q, want local 200 hit",
			resp2.StatusCode, d2.FromStore, d2.Peer)
	}

	if v := metricValue(t, ts[0], "momserved_peer_proxied_total"); v != 1 {
		t.Fatalf("peer proxied counter %g, want 1", v)
	}
	if v := metricValue(t, ts[0], "momserved_peer_fills_total"); v != 1 {
		t.Fatalf("peer fills counter %g, want 1", v)
	}
	if v := metricValue(t, ts[0], "momserved_store_fills_total"); v != 1 {
		t.Fatalf("store fills counter %g, want 1", v)
	}
	if v := metricValue(t, ts[0], "momserved_peers"); v != 2 {
		t.Fatalf("peers gauge %g, want 2", v)
	}

	// The proxied job produced ONE stitched trace: the submitting node
	// recorded a proxy flight with the peer hop span, and the owner recorded
	// its compute flight under the same trace ID (carried by Mom-Trace).
	if d.Trace == "" {
		t.Fatal("proxied job carries no trace id")
	}
	var proxied bool
	for _, fl := range fetchFlights(t, ts[0], "?trace="+d.Trace).Flights {
		if fl.Kind != KindProxy || fl.Key != key {
			continue
		}
		proxied = true
		if fl.Peer != owner {
			t.Errorf("proxy flight names peer %q, want %q", fl.Peer, owner)
		}
		var hop bool
		for _, sp := range fl.Spans {
			if sp.Name == "proxy" && sp.Detail == owner {
				hop = true
			}
		}
		if !hop {
			t.Errorf("proxy flight has no proxy hop span (spans %v)", fl.Spans)
		}
	}
	if !proxied {
		t.Fatalf("node 0 recorded no proxy flight for trace %s", d.Trace)
	}
	var computed bool
	for _, fl := range fetchFlights(t, ts[1], "?trace="+d.Trace).Flights {
		if fl.Kind != KindCompute || fl.Key != key {
			continue
		}
		computed = true
		var exec bool
		for _, sp := range fl.Spans {
			if sp.Name == "execute" {
				exec = true
			}
		}
		if !exec {
			t.Errorf("owner's compute flight has no execute span (spans %v)", fl.Spans)
		}
	}
	if !computed {
		t.Fatalf("owner recorded no compute flight under trace %s — the hop did not stitch", d.Trace)
	}
}

// syncBuffer is a log sink tests can read while the server still writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPeerOwnerUnreachable: a submission whose key a dead peer owns fails
// cleanly — no hang past the peer client timeout, the peer-error counter
// moves, the structured log names the peer, key and operation, and the
// local runner never runs.
func TestPeerOwnerUnreachable(t *testing.T) {
	var lns [2]net.Listener
	var urls [2]string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	// Node 1 never starts serving: its address is in the peer set, but the
	// listener closes before any request can reach it.
	lns[1].Close()

	ps, err := NewPeerSet(urls[0], urls[:])
	if err != nil {
		t.Fatal(err)
	}
	logBuf := &syncBuffer{}
	var calls int32
	srv := New(Config{Workers: 1, QueueCap: 4, Peers: ps, Runner: countingRunner(&calls, nil),
		Logger: slog.New(slog.NewJSONHandler(logBuf, nil))})
	hs := httptest.NewUnstartedServer(srv)
	hs.Listener.Close()
	hs.Listener = lns[0]
	hs.Start()
	defer hs.Close()
	defer srv.Shutdown(context.Background())

	body, key := requestOwnedBy(t, ps, urls[1])
	d, resp := post(t, hs, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202 (proxied)", resp.StatusCode)
	}
	if d.Peer != urls[1] {
		t.Fatalf("job names peer %q, want the dead owner %q", d.Peer, urls[1])
	}
	got := waitState(t, hs, d.ID, StateFailed)
	if !strings.Contains(got.Error, urls[1]) {
		t.Fatalf("failure %q does not name the unreachable peer", got.Error)
	}
	if v := metricValue(t, hs, "momserved_peer_errors_total"); v < 1 {
		t.Fatalf("peer errors counter %g, want >= 1", v)
	}
	logged := logBuf.String()
	for _, want := range []string{"peer round trip failed", urls[1], key, `"op":"proxy"`} {
		if !strings.Contains(logged, want) {
			t.Errorf("peer-failure log lacks %q:\n%s", want, logged)
		}
	}
	if n := atomic.LoadInt32(&calls); n != 0 {
		t.Fatalf("local runner ran %d times for a key the dead peer owns", n)
	}
}

// TestPeerFillOnMissByteIdentical is the acceptance criterion with the
// REAL runner: a result computed locally on its owning node and the same
// result fetched through the other node's fill-on-miss path are
// byte-identical documents.
func TestPeerFillOnMissByteIdentical(t *testing.T) {
	ts, srvs := twoNodes(t, func(i int) Config {
		st, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Workers: 2, QueueCap: 8, Store: st} // default Runner: mom.RunJobRequest
	})
	owner := srvs[0].cfg.Peers.Self()
	body, _ := requestOwnedBy(t, srvs[0].cfg.Peers, owner)

	// Compute on the owner.
	d0, _ := post(t, ts[0], body)
	if d0.Peer != "" {
		t.Fatalf("owner-submitted job proxied to %q", d0.Peer)
	}
	done0 := waitState(t, ts[0], d0.ID, StateDone)
	code, local := get(t, ts[0].URL+done0.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("local result: status %d", code)
	}

	// Fetch through the non-owner: born done via peer store fill.
	d1, resp1 := post(t, ts[1], body)
	if resp1.StatusCode != http.StatusOK || !d1.FromStore || d1.Peer != owner {
		t.Fatalf("fill-on-miss = status %d from_store %v peer %q, want 200 true %q",
			resp1.StatusCode, d1.FromStore, d1.Peer, owner)
	}
	code, viaPeer := get(t, ts[1].URL+d1.ResultURL)
	if code != http.StatusOK {
		t.Fatalf("filled result: status %d", code)
	}
	if !bytes.Equal(viaPeer, local) {
		t.Fatalf("peer-filled document differs from the locally computed one:\n%s\nvs\n%s", viaPeer, local)
	}
	if v := metricValue(t, ts[1], "momserved_peer_fills_total"); v != 1 {
		t.Fatalf("peer fills counter %g, want 1", v)
	}
}

// TestPeerEndlessBody: a peer whose response bodies never end is cut off
// at the read bound on every peer read, and each cut-off counts as a peer
// error with the usual fallback. The trace fetcher gives up, so its caller
// recaptures; the store fill gives up, so the submission becomes a proxy
// flight; and the proxy's submit and result reads give up, so its job
// fails naming the peer, as for an unreachable owner.
func TestPeerEndlessBody(t *testing.T) {
	var submitDone atomic.Bool // false: POST /v1/jobs answers an endless body too
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && submitDone.Load() {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j1","state":"done","result_url":"/v1/jobs/j1/result"}`)
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := w.Write(buf); err != nil {
				return // the reader hung up
			}
		}
	}))
	defer stub.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	ps, err := NewPeerSet(self, []string{self, stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	srv := New(Config{Workers: 1, QueueCap: 4, Peers: ps, Runner: countingRunner(&calls, nil)})
	hs := httptest.NewUnstartedServer(srv)
	hs.Listener.Close()
	hs.Listener = ln
	hs.Start()
	defer hs.Close()
	defer srv.Shutdown(context.Background())

	_, _, akey := traceOwnedBy(t, ps, stub.URL)
	if _, ok := srv.fetchPeerTrace(akey); ok {
		t.Fatal("trace fetch from an endless body reported an artifact")
	}

	body, _ := requestOwnedBy(t, ps, stub.URL)
	for _, done := range []bool{false, true} {
		submitDone.Store(done)
		d, resp := post(t, hs, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d, want 202 (proxied)", resp.StatusCode)
		}
		got := waitState(t, hs, d.ID, StateFailed)
		if !strings.Contains(got.Error, stub.URL) || !strings.Contains(got.Error, "exceeds") {
			t.Fatalf("proxy (submit answered done: %v) failed with %q, want the peer and the bound named", done, got.Error)
		}
	}
	// One trace fetch, then a store fetch and a proxy round trip per job.
	if v := metricValue(t, hs, "momserved_peer_errors_total"); v != 5 {
		t.Fatalf("peer errors counter %g, want 5", v)
	}
	if n := atomic.LoadInt32(&calls); n != 0 {
		t.Fatalf("local runner ran %d times for keys the peer owns", n)
	}
}

// TestPeerGarbageBody: a peer that answers 200 with a body that is not a
// JSON document has failed, like one that errs. The store fill rejects the
// body, so the submission becomes a proxy flight instead of a store hit,
// and the proxy's result read rejects it too, so the job fails naming the
// peer. Neither body is served or filled into the local store, each
// counts as a peer error, and the local runner never runs.
func TestPeerGarbageBody(t *testing.T) {
	const garbage = "this is not a result document"
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"id":"j1","state":"done","result_url":"/v1/jobs/j1/result"}`)
			return
		}
		fmt.Fprint(w, garbage) // the store read and the result read
	}))
	defer stub.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := "http://" + ln.Addr().String()
	ps, err := NewPeerSet(self, []string{self, stub.URL})
	if err != nil {
		t.Fatal(err)
	}
	st, err := store.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	var calls int32
	srv := New(Config{Workers: 1, QueueCap: 4, Store: st, Peers: ps, Runner: countingRunner(&calls, nil)})
	hs := httptest.NewUnstartedServer(srv)
	hs.Listener.Close()
	hs.Listener = ln
	hs.Start()
	defer hs.Close()
	defer srv.Shutdown(context.Background())

	body, key := requestOwnedBy(t, ps, stub.URL)
	d, resp := post(t, hs, body)
	if resp.StatusCode != http.StatusAccepted || d.FromStore {
		t.Fatalf("submit: status %d from_store %v, want 202 false (proxied, not filled)", resp.StatusCode, d.FromStore)
	}
	got := waitState(t, hs, d.ID, StateFailed)
	if !strings.Contains(got.Error, stub.URL) || !strings.Contains(got.Error, "not a JSON document") {
		t.Fatalf("proxy failed with %q, want the peer and the bad body named", got.Error)
	}
	if val, ok := st.Get(key); ok {
		t.Fatalf("the local store holds %q for the key", val)
	}
	// The store fetch, then the proxy's result read.
	if v := metricValue(t, hs, "momserved_peer_errors_total"); v != 2 {
		t.Fatalf("peer errors counter %g, want 2", v)
	}
	if n := atomic.LoadInt32(&calls); n != 0 {
		t.Fatalf("local runner ran %d times for a key the peer owns", n)
	}
}
