package mom

import (
	"bytes"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// This file defines the canonical request form of every experiment the
// package can run — the unit of work of the momserver job service and the
// identity under which internal/store caches results. A JobRequest is
// normalised (defaults filled, irrelevant fields cleared, names
// canonicalised) and then hashed, so two requests that mean the same
// computation always produce the same SHA-256 key and, because every
// driver is deterministic and the JSON encoding is canonical (struct
// fields in declaration order, map keys sorted by encoding/json), the
// same stored bytes.

// experiment is one catalogue entry: a name and description, the request
// fields the experiment consumes besides Scale (Normalized clears the
// rest, SweepSpec.Expand grids only over them), and the function that
// runs it.
type experiment struct {
	name, desc                           string
	width, isa, mem, kernel, app, sample bool
	run                                  func(ctx context.Context, r JobRequest) (any, error)
}

// catalogue lists every runnable experiment in a stable order: the batch
// experiments first, then the two single-point runs. `momsim -exp list`
// shows the descriptions, so the exp axis of a SweepSpec is discoverable.
var catalogue = []experiment{
	{name: "fig5", desc: "kernel speed-ups for every kernel × ISA × width on perfect memory (Figure 5)",
		run: func(ctx context.Context, r JobRequest) (any, error) { return Figure5(ctx, r.scale()) }},
	{name: "fig7", desc: "application speed-ups on the detailed cache hierarchies (Figure 7)", sample: true,
		run: func(ctx context.Context, r JobRequest) (any, error) { return Figure7(ctx, r.scale(), r.Sample()) }},
	{name: "latency", desc: "kernel slow-downs when memory latency rises from 1 to 50 cycles (Section 4.1)", width: true,
		run: func(ctx context.Context, r JobRequest) (any, error) { return LatencyStudy(ctx, r.scale(), r.Width) }},
	{name: "profile", desc: "nine-bucket cycle attribution for every kernel × ISA at 1- and 50-cycle memory", width: true, sample: true,
		run: func(ctx context.Context, r JobRequest) (any, error) {
			return ProfileStudy(ctx, r.scale(), r.Width, r.Sample())
		}},
	{name: "fetch", desc: "dynamic instruction counts and packed word-operations per instruction",
		run: func(ctx context.Context, r JobRequest) (any, error) { return FetchPressure(ctx, r.scale()) }},
	{name: "hotspots", desc: "per-PC cycle attribution (annotated disassembly) for every kernel × ISA", width: true, sample: true,
		run: func(ctx context.Context, r JobRequest) (any, error) {
			return HotspotStudy(ctx, r.scale(), r.Width, r.Sample())
		}},
	{name: "regsweep", desc: "cycle cost versus physical matrix-register-file size for one kernel", kernel: true,
		run: func(ctx context.Context, r JobRequest) (any, error) { return RegisterSweep(ctx, r.scale(), r.Kernel) }},
	{name: "memsweep", desc: "cycle cost versus MSHR and L1-bank counts for one application", app: true,
		run: func(ctx context.Context, r JobRequest) (any, error) { return MemorySweep(ctx, r.scale(), r.App) }},
	{name: "kernel", desc: "one kernel on one machine point (ISA × width × memory, exact or sampled)",
		width: true, isa: true, mem: true, kernel: true, sample: true, run: runPoint},
	{name: "app", desc: "one application on one machine point (ISA × width × memory, exact or sampled)",
		width: true, isa: true, mem: true, app: true, sample: true, run: runPoint},
}

// ExpNames lists the runnable experiments in catalogue order.
var ExpNames = expNames(func(experiment) bool { return true })

// expNames lists the names of the catalogue entries keep selects.
func expNames(keep func(experiment) bool) []string {
	var out []string
	for _, e := range catalogue {
		if keep(e) {
			out = append(out, e.name)
		}
	}
	return out
}

// lookupExp returns the catalogue entry of a runnable experiment.
func lookupExp(name string) (experiment, bool) {
	for _, e := range catalogue {
		if e.name == name {
			return e, true
		}
	}
	return experiment{}, false
}

// ExpDescription returns the one-line description of a runnable
// experiment ("" for names outside ExpNames).
func ExpDescription(name string) string {
	e, _ := lookupExp(name)
	return e.desc
}

// JobRequest identifies one experiment computation. Exp selects the
// catalogue entry; the remaining fields parameterise it. Fields the entry
// does not consume are cleared by Normalized so they cannot split the
// store key space.
type JobRequest struct {
	Exp    string `json:"exp"`              // one of ExpNames
	Scale  string `json:"scale,omitempty"`  // "test" (default) or "bench"
	Width  int    `json:"width,omitempty"`  // issue width (default 4)
	ISA    string `json:"isa,omitempty"`    // default "MOM"
	Mem    string `json:"mem,omitempty"`    // perfect|perfect50|conv|multi|vector|collapsing (default "perfect")
	Kernel string `json:"kernel,omitempty"` // see KernelNames
	App    string `json:"app,omitempty"`    // see AppNames

	// Sampled-simulation parameters (see SampleSpec). All zero — the
	// default — selects exact simulation, so pre-sampling requests keep
	// their canonical form and key.
	SamplePeriod   uint64 `json:"sample_period,omitempty"`
	SampleWarmup   uint64 `json:"sample_warmup,omitempty"`
	SampleInterval uint64 `json:"sample_interval,omitempty"`

	// SamplePar is the sampled-simulation worker count (0 = all host
	// cores, 1 = serial; see SampleSpec.Parallelism); hotspot runs are
	// serial at any value. It is a pure speed knob — parallel results are
	// bit-identical to serial — so Normalized always clears it: requests
	// differing only in SamplePar share one content-address key and one
	// stored result. RunExperiment re-applies it for execution, but the job
	// service runs the normalized request, so a submitted sample_par is
	// dropped there and the host's core count is used.
	SamplePar int `json:"sample_par,omitempty"`
}

// Sample assembles the request's sampled-simulation spec.
func (r JobRequest) Sample() SampleSpec {
	return SampleSpec{Period: r.SamplePeriod, Warmup: r.SampleWarmup, Interval: r.SampleInterval,
		Parallelism: r.SamplePar}
}

// BatchRequest is the envelope of the job service's POST /v1/jobs:batch:
// a list of job requests admitted in one round trip — the natural entry
// point for a design-space sweep, which expands a grid of configurations
// into many overlapping requests. Items are deduplicated by content
// address within the batch and against work already in flight before any
// of them reaches the admission queue. TimeoutMS, when set, applies to
// every item (like the single-submit timeout_ms, it is an execution
// deadline, never part of any store key).
type BatchRequest struct {
	Jobs      []JobRequest `json:"jobs"`
	TimeoutMS int64        `json:"timeout_ms,omitempty"`
}

// requestKeyDoc is the hashed document: the request plus the schema
// version, so a change to the result encoding retires every stored entry.
type requestKeyDoc struct {
	Schema int `json:"schema"`
	JobRequest
}

// ParseISA resolves an ISA name case-insensitively.
func ParseISA(s string) (ISA, error) {
	switch strings.ToLower(s) {
	case "alpha":
		return Alpha, nil
	case "mmx":
		return MMX, nil
	case "mdmx":
		return MDMX, nil
	case "mom":
		return MOM, nil
	}
	return 0, fmt.Errorf("unknown ISA %q (valid: Alpha, MMX, MDMX, MOM)", s)
}

// MemModelNames lists the memory-model selectors accepted by
// ParseMemModel, in a stable order.
var MemModelNames = []string{"perfect", "perfect50", "conv", "multi", "vector", "collapsing"}

// ParseMemModel resolves a memory-model selector (the -cache vocabulary of
// cmd/momsim).
func ParseMemModel(s string) (MemModel, error) {
	switch s {
	case "perfect":
		return PerfectMemory(1), nil
	case "perfect50":
		return PerfectMemory(50), nil
	case "conv":
		return DetailedMemory(Conventional), nil
	case "multi":
		return DetailedMemory(MultiAddress), nil
	case "vector":
		return DetailedMemory(VectorCache), nil
	case "collapsing":
		return DetailedMemory(CollapsingBuffer), nil
	}
	return MemModel{}, fmt.Errorf("unknown memory model %q (valid: %s)", s, strings.Join(MemModelNames, ", "))
}

// ParseScale resolves a workload-scale name ("" selects test).
func ParseScale(s string) (Scale, error) {
	switch s {
	case "", "test":
		return ScaleTest, nil
	case "bench":
		return ScaleBench, nil
	}
	return 0, fmt.Errorf("unknown scale %q (valid: test, bench)", s)
}

// scale returns the Scale of a normalised request.
func (r JobRequest) scale() Scale {
	sc, _ := ParseScale(r.Scale)
	return sc
}

// checkWidth is the one width check of every timing run: the Table 1
// machines are 1-, 2-, 4- and 8-way, and the detailed hierarchies of
// Table 3 exist at 4- and 8-way only.
func checkWidth(width int, m MemModel) error {
	switch {
	case width != 1 && width != 2 && width != 4 && width != 8:
		return fmt.Errorf("invalid width %d (valid: 1, 2, 4, 8)", width)
	case m.detailed && width < 4:
		return fmt.Errorf("invalid width %d for %s memory (valid: 4, 8)", width, m.Name())
	}
	return nil
}

func validName(kind, name string, valid []string) error {
	for _, n := range valid {
		if n == name {
			return nil
		}
	}
	if name == "" {
		return fmt.Errorf("missing %s (valid: %s)", kind, strings.Join(valid, ", "))
	}
	return fmt.Errorf("unknown %s %q (valid: %s)", kind, name, strings.Join(valid, ", "))
}

// Normalized validates the request and returns its canonical form:
// defaults filled in, names canonicalised (ISA case, scale), and every
// field the experiment's catalogue entry does not consume cleared. The
// canonical form is what Key hashes, so e.g. {"exp":"fig5","width":8} and
// {"exp":"fig5"} are the same computation and the same store entry.
func (r JobRequest) Normalized() (JobRequest, error) {
	n := JobRequest{Exp: r.Exp, Scale: cmp.Or(r.Scale, "test")}
	_, err := ParseScale(r.Scale)
	if err != nil {
		return n, err
	}
	e, ok := lookupExp(r.Exp)
	if !ok {
		return n, fmt.Errorf("unknown experiment %q (valid: %s)", r.Exp, strings.Join(ExpNames, ", "))
	}
	// Exact-only experiments reject sampling parameters instead of
	// silently dropping them: a caller asking for a sampled fig5 would
	// otherwise get (and cache) an exact run under a request that promised
	// something else.
	if !e.sample && r.Sample().Enabled() {
		return n, fmt.Errorf("experiment %q is exact-only: sampling is not supported (sampled-capable: %s)",
			r.Exp, strings.Join(expNames(func(e experiment) bool { return e.sample }), ", "))
	}
	var m MemModel // experiments without a mem field run on perfect memory
	if e.isa {
		level, err := ParseISA(cmp.Or(r.ISA, "MOM"))
		if err != nil {
			return n, err
		}
		n.ISA = level.String()
	}
	if e.mem {
		n.Mem = cmp.Or(r.Mem, "perfect")
		if m, err = ParseMemModel(n.Mem); err != nil {
			return n, err
		}
	}
	if e.width {
		n.Width = cmp.Or(r.Width, 4)
		if err := checkWidth(n.Width, m); err != nil {
			return n, err
		}
	}
	if e.kernel {
		n.Kernel = r.Kernel
		if err := validName("kernel", n.Kernel, KernelNames()); err != nil {
			return n, err
		}
	}
	if e.app {
		n.App = r.App
		if err := validName("app", n.App, AppNames()); err != nil {
			return n, err
		}
	}
	if e.sample {
		if err := r.Sample().Validate(); err != nil {
			return n, err
		}
		n.SamplePeriod, n.SampleWarmup, n.SampleInterval = r.SamplePeriod, r.SampleWarmup, r.SampleInterval
	}
	return n, nil
}

// CanonicalJSON returns the deterministic byte encoding of the normalised
// request prefixed with the schema version — the store's hashing preimage.
func (r JobRequest) CanonicalJSON() ([]byte, error) {
	n, err := r.Normalized()
	if err != nil {
		return nil, err
	}
	return json.Marshal(requestKeyDoc{Schema: SchemaVersion, JobRequest: n})
}

// Key returns the content-addressed store key of the request: the
// lowercase hex SHA-256 of CanonicalJSON.
func (r JobRequest) Key() (string, error) {
	b, err := r.CanonicalJSON()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// RunExperiment executes one request through its catalogue entry and
// returns the rows: the experiment's row slice, or the Result of a kernel
// or app point. The context cancels a parallel experiment between
// sub-runs (see par.For).
func RunExperiment(ctx context.Context, req JobRequest) (any, error) {
	n, err := req.Normalized()
	if err != nil {
		return nil, err
	}
	e, _ := lookupExp(n.Exp)
	// The worker-count knob is cleared by Normalized (it must not split the
	// key space), so re-apply the caller's choice for execution only.
	n.SamplePar = req.SamplePar
	return e.run(ctx, n)
}

// RunJobRequest executes one request and returns the canonical result
// document — the same single-line JSON the momsim -json paths emit, which
// is what the job service stores and serves. Identical requests yield
// byte-identical documents.
func RunJobRequest(ctx context.Context, req JobRequest) ([]byte, error) {
	rows, err := RunExperiment(ctx, req)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if res, ok := rows.(Result); ok {
		err = WriteResultJSON(&buf, res)
	} else {
		err = WriteExperimentJSON(&buf, req.Exp, rows)
	}
	if err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// runPoint runs the kernel and app points: one workload on one machine,
// checked against the accounting invariants.
func runPoint(ctx context.Context, r JobRequest) (any, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	level, _ := ParseISA(r.ISA)
	m, _ := ParseMemModel(r.Mem)
	key := traceKey{app: r.App != "", name: cmp.Or(r.Kernel, r.App), isa: level, scale: r.scale()}
	res, err := runWorkload(key, r.Width, m, r.Sample(), nil)
	if err != nil {
		return nil, err
	}
	if err := res.CheckInvariants(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return res, nil
}
