package serve

import (
	"errors"
	"net/http"
	"strconv"

	mom "repro"
)

// maxBatchItems bounds one POST /v1/jobs:batch payload; a sweep larger
// than this submits in slices.
const maxBatchItems = 1024

// maxBodyBytes bounds the body of POST /v1/jobs and /v1/jobs:batch, so no
// request makes the server read or decode without limit; a longer body is
// answered 413 before the items are counted. It is sized for a batch of
// maxBatchItems of the longest request: with every field at the widest
// value its vocabulary or integer type allows (exp "hotspots", scale
// "bench", isa "Alpha", mem "collapsing", kernel "ltpparameters", app
// "mpeg2encode", each integer 20 characters) one request encodes in 288
// bytes, and 1,024 of them with the envelope in 295,980 bytes. 512 KiB
// leaves room for the spacing and indentation of pretty-printed bodies.
const maxBodyBytes = 512 << 10

// Peer response bodies are read up to a bound, so a peer that never ends
// its body costs the reader at most that many bytes; a longer body is a
// peer error (readPeerBody). maxPeerDocBytes covers a result document or
// a job document: the largest result, a hotspots document, measures
// 2,376,582 bytes at test scale and 2,381,022 at bench scale, so 8 MiB
// leaves 3.5x headroom. maxPeerTraceBytes covers a trace artifact: the
// largest, mpeg2encode/Alpha at bench scale, encodes in 10,768,822 bytes
// (the 10,765,362 its 5,593,250 records hold in memory, 171 20-byte frame
// preludes and a 40-byte header), so 16 MiB leaves 1.56x headroom.
const (
	maxPeerDocBytes   = 8 << 20
	maxPeerTraceBytes = 16 << 20
)

// Per-item error strings of refused admissions. They are part of the
// batch endpoint's contract: clients (the sweep engine's batch client)
// match on them to decide between retrying an item (queue full) and
// abandoning the server (draining).
const (
	ErrMsgQueueFull = "job queue full"
	ErrMsgDraining  = "server is draining"
)

// BatchItem is the per-item response of the batch endpoint. Index ties it
// back to the request list (items come back in order regardless).
// Duplicate marks an item whose key already appeared earlier in the same
// batch: it carries the earlier item's job id and never reached
// admission. The type is exported for client reuse — the sweep engine
// decodes batch responses into it.
type BatchItem struct {
	Index     int    `json:"index"`
	ID        string `json:"id,omitempty"`
	RequestID string `json:"request_id,omitempty"`
	Key       string `json:"key,omitempty"`
	State     string `json:"state,omitempty"`
	FromStore bool   `json:"from_store,omitempty"`
	Coalesced bool   `json:"coalesced,omitempty"`
	Duplicate bool   `json:"duplicate,omitempty"`
	Peer      string `json:"peer,omitempty"`
	Error     string `json:"error,omitempty"`
	ResultURL string `json:"result_url,omitempty"`
}

// BatchResponse is the envelope of a batch answer, exported for client
// reuse alongside BatchItem.
type BatchResponse struct {
	Jobs []BatchItem `json:"jobs"`
}

// handleBatch admits a list of requests in one round trip. Every item is
// answered individually — an invalid or refused item does not fail its
// batch — and deduplication happens at three levels before the admission
// queue is touched: the local store (born done), earlier items of the
// same batch (Duplicate), and flights already in the air (Coalesced).
// When any item was refused for queue capacity the response carries a
// Retry-After header, so a client resubmitting the refused slice knows
// how long to back off.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var body mom.BatchRequest
	if !decodeBody(w, r, &body) {
		return
	}
	if len(body.Jobs) == 0 {
		httpError(w, http.StatusBadRequest, "empty batch: need a jobs list")
		return
	}
	if len(body.Jobs) > maxBatchItems {
		httpError(w, http.StatusBadRequest, "batch of %d items exceeds the %d-item limit", len(body.Jobs), maxBatchItems)
		return
	}
	timeout := s.clampTimeout(body.TimeoutMS)

	// One trace context spans the whole batch — every admitted item's
	// flight records under it, so a sweep submitted in one round trip
	// reads as one distributed trace — while each item still gets its own
	// request ID.
	batchTrace := adoptTrace(r)

	items := make([]BatchItem, len(body.Jobs))
	seen := map[string]int{} // key -> index of the first item admitted for it
	refused := false
	for i, jr := range body.Jobs {
		items[i].Index = i
		req, err := jr.Normalized()
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		key, err := req.Key()
		if err != nil {
			items[i].Error = err.Error()
			continue
		}
		items[i].Key = key
		if first, ok := seen[key]; ok {
			d := items[first]
			d.Index = i
			d.Duplicate = true
			items[i] = d
			continue
		}
		j, _, err := s.admit(req, key, timeout, traceCtx{trace: batchTrace, reqID: "r" + newID()})
		switch {
		case errors.Is(err, errDraining):
			items[i].Error = ErrMsgDraining
			continue
		case errors.Is(err, errQueueFull):
			items[i].Error = ErrMsgQueueFull
			refused = true
			continue
		}
		seen[key] = i
		s.mu.Lock()
		d := s.doc(j)
		s.mu.Unlock()
		items[i] = BatchItem{
			Index: i, ID: d.ID, RequestID: d.RequestID, Key: d.Key, State: d.State,
			FromStore: d.FromStore, Coalesced: d.Coalesced, Peer: d.Peer,
			ResultURL: d.ResultURL,
		}
	}
	s.metrics.batchRequests.Inc()
	s.metrics.batchItems.Add(int64(len(body.Jobs)))
	if refused {
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
	}
	writeJSON(w, http.StatusOK, BatchResponse{Jobs: items})
}
