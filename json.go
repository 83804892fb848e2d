package mom

import (
	"encoding/json"
	"io"
)

// JSON exports of the experiment rows and single-run results. Every
// momsim experiment can emit its rows through WriteExperimentJSON, so the
// schema is uniform: one compact document per experiment with the schema
// version, the experiment name and the row list. The encoding is
// canonical — struct fields appear in declaration order, map keys are
// sorted by encoding/json, and ISA / CacheMode marshal by name — so the
// same rows always produce the same bytes. The job service relies on
// this: the documents are stored content-addressed under a key that
// includes SchemaVersion, and byte-identical replay of a stored document
// must be indistinguishable from a fresh run.

// SchemaVersion is the version of the JSON document schema emitted by
// WriteExperimentJSON / WriteResultJSON. Bump it on any change to the
// envelope or row encodings; the bump flows into every JobRequest key, so
// stale store entries are never served across a schema change.
//
// The row encodings are not all declared in this package: MemStats,
// Profile and Table2Entry are mem.Stats, obs.Profile and
// regfile.Table2Entry, whose json tags are part of the schema too.
// TestGoldenDocs guards every one of them: a changed tag or field order
// moves a pinned document digest.
//
// Version 2 added the optional "sampled" block to Result and the
// experiment rows (absent in exact mode) plus the sample_* request
// parameters.
const SchemaVersion = 2

// experimentEnvelope is the uniform top-level JSON shape.
type experimentEnvelope struct {
	Schema     int    `json:"schema"`
	Experiment string `json:"experiment"`
	Rows       any    `json:"rows"`
}

// resultEnvelope flattens a single-run Result under the same schema
// header ({"schema":1,"workload":...}).
type resultEnvelope struct {
	Schema int `json:"schema"`
	Result
}

// WriteExperimentJSON emits one experiment's rows as a single-line JSON
// document: {"schema": v, "experiment": name, "rows": [...]}.
func WriteExperimentJSON(w io.Writer, name string, rows any) error {
	return json.NewEncoder(w).Encode(experimentEnvelope{Schema: SchemaVersion, Experiment: name, Rows: rows})
}

// WriteResultJSON emits one timed run (a single kernel or application) as
// a single-line JSON document with the schema version alongside the
// Result fields.
func WriteResultJSON(w io.Writer, r Result) error {
	return json.NewEncoder(w).Encode(resultEnvelope{Schema: SchemaVersion, Result: r})
}

// SpanDoc is the JSON envelope of one stage span in a job's flight
// timeline — the serving-path counterpart of the per-instruction pipeline
// stages the observability layer exports. Offsets are microseconds from
// the flight's start, so spans from different nodes sharing one trace
// context stitch by wall-clock without exchanging monotonic clocks.
type SpanDoc struct {
	Name    string `json:"name"`
	StartUS int64  `json:"start_us"`
	DurUS   int64  `json:"dur_us"`
	Detail  string `json:"detail,omitempty"`
}
