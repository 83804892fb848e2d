package serve

import (
	"bytes"
	"io"
	"net/http"
	"testing"

	mom "repro"
	"repro/internal/store"
)

// traceOwnedBy finds a workload whose trace-artifact key the given node
// owns — listener ports vary per run, so ownership must be discovered.
func traceOwnedBy(t *testing.T, ps *PeerSet, owner string) (name string, isa mom.ISA, key string) {
	t.Helper()
	for _, i := range mom.AllISAs {
		for _, k := range mom.KernelNames() {
			akey := mom.TraceArtifactKey(false, k, i, mom.ScaleTest)
			if ps.Owner(akey) == owner {
				return k, i, akey
			}
		}
	}
	t.Fatalf("no workload's artifact key hashes to %s", owner)
	return "", 0, ""
}

// TestPeerTraceFetch: GET /v1/traces/{key} serves raw artifact bytes from
// the owner's trace store, the non-owner's fetcher retrieves them
// byte-identically, and the owner never asks itself.
func TestPeerTraceFetch(t *testing.T) {
	ts, srvs := twoNodes(t, func(i int) Config {
		tst, err := store.Open(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		return Config{Workers: 1, QueueCap: 8, TraceStore: tst,
			Runner: countingRunner(new(int32), nil)}
	})
	owner := srvs[1].cfg.Peers.Self()
	name, isa, akey := traceOwnedBy(t, srvs[1].cfg.Peers, owner)

	tr := mom.CaptureWorkloadTrace(false, name, isa, mom.ScaleTest)
	if tr == nil {
		t.Fatalf("capture of %s/%s failed", name, isa)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	blob := buf.Bytes()
	if err := srvs[1].cfg.TraceStore.Put(akey, blob); err != nil {
		t.Fatal(err)
	}

	// The owner serves the artifact; the empty node answers 404.
	code, served := get(t, ts[1].URL+"/v1/traces/"+akey)
	if code != http.StatusOK || !bytes.Equal(served, blob) {
		t.Fatalf("owner trace GET: status %d, identical %v", code, bytes.Equal(served, blob))
	}
	if code, _ := get(t, ts[0].URL+"/v1/traces/"+akey); code != http.StatusNotFound {
		t.Fatalf("empty node trace GET: status %d, want 404", code)
	}

	// The non-owner's fetcher pulls the bytes from the owner.
	rc, ok := srvs[0].fetchPeerTrace(akey)
	if !ok {
		t.Fatal("non-owner fetch reported no artifact")
	}
	fetched, err := io.ReadAll(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fetched, blob) {
		t.Fatal("fetched artifact differs from the owner's bytes")
	}

	// The owner never asks itself for a key it owns.
	if _, ok := srvs[1].fetchPeerTrace(akey); ok {
		t.Fatal("owner fetched its own key from a peer")
	}

	// The fetch recorded a flight with its hop span on the asking node.
	var fetchedFlight bool
	for _, fl := range fetchFlights(t, ts[0], "").Flights {
		if fl.Kind != KindTraceFetch || fl.Key != akey {
			continue
		}
		fetchedFlight = true
		var hop bool
		for _, sp := range fl.Spans {
			if sp.Name == "trace-fetch" && sp.Detail == owner {
				hop = true
			}
		}
		if !hop {
			t.Errorf("trace-fetch flight has no hop span (spans %v)", fl.Spans)
		}
	}
	if !fetchedFlight {
		t.Fatal("asking node recorded no trace-fetch flight")
	}

	// Artifact-store occupancy is exported on the owner.
	if v := metricValue(t, ts[1], "momserved_trace_store_entries"); v != 1 {
		t.Fatalf("trace store entries gauge %g, want 1", v)
	}
}
