package mom

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"testing"
)

// goldenPath is the tier-1 record of every result document at ScaleTest:
// one entry per request (or momsim-only table envelope, or pipeline export
// file) with the request's content-address key and the SHA-256 of the
// document it produces. It was
// generated once and is never edited by hand; a change that moves a digest
// must explain why in the change that regenerates it.
const goldenPath = "testdata/golden_docs.json"

// goldenDoc is one manifest entry. Key is empty for the static tables,
// which momsim prints but the job service does not run.
type goldenDoc struct {
	ID     string `json:"id"`
	Key    string `json:"key,omitempty"`
	SHA256 string `json:"sha256"`
}

// goldenReq is one pinned request and its manifest ID.
type goldenReq struct {
	id  string
	req JobRequest
}

// goldenRequests lists the pinned requests: every batch experiment at its
// defaults, the sampled-capable batch experiments under DefaultSampleSpec,
// regsweep for every kernel, memsweep for every app, every kernel and app
// at MOM/4-way/perfect exact, and every app at MOM/4-way/multi sampled.
func goldenRequests() []goldenReq {
	d := DefaultSampleSpec
	sampled := func(r JobRequest) JobRequest {
		r.SamplePeriod, r.SampleWarmup, r.SampleInterval = d.Period, d.Warmup, d.Interval
		return r
	}
	var out []goldenReq
	for _, e := range []string{"fig5", "fig7", "latency", "profile", "fetch", "hotspots"} {
		out = append(out, goldenReq{e, JobRequest{Exp: e}})
	}
	for _, e := range []string{"fig7", "profile", "hotspots"} {
		out = append(out, goldenReq{e + "/sampled", sampled(JobRequest{Exp: e})})
	}
	for _, k := range KernelNames() {
		out = append(out, goldenReq{"regsweep/" + k, JobRequest{Exp: "regsweep", Kernel: k}})
	}
	for _, a := range AppNames() {
		out = append(out, goldenReq{"memsweep/" + a, JobRequest{Exp: "memsweep", App: a}})
	}
	for _, k := range KernelNames() {
		out = append(out, goldenReq{"kernel/" + k, JobRequest{Exp: "kernel", Kernel: k, ISA: "MOM", Width: 4, Mem: "perfect"}})
	}
	for _, a := range AppNames() {
		out = append(out, goldenReq{"app/" + a, JobRequest{Exp: "app", App: a, ISA: "MOM", Width: 4, Mem: "perfect"}})
	}
	for _, a := range AppNames() {
		out = append(out, goldenReq{"app/" + a + "/multi/sampled", sampled(JobRequest{Exp: "app", App: a, ISA: "MOM", Width: 4, Mem: "multi"})})
	}
	return out
}

// goldenTables renders the static-table envelopes `momsim -exp all -json`
// prints (Table 1 for each ISA).
func goldenTables(t *testing.T) []goldenDoc {
	var out []goldenDoc
	add := func(id, exp string, rows any) {
		var buf bytes.Buffer
		if err := WriteExperimentJSON(&buf, exp, rows); err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenDoc{ID: id, SHA256: digest(buf.Bytes())})
	}
	for _, i := range AllISAs {
		add("table1/"+i.String(), "table1", Table1(i))
	}
	add("table2", "table2", Table2())
	add("table3", "table3", Table3())
	mmx, mdmx, momN := ISACounts()
	add("isacount", "isacount", map[string]int{"mmx": mmx, "mdmx": mdmx, "mom": momN})
	return out
}

// goldenPipelines exports one window (instructions 1000 to 2999) of the
// pipeline lifetimes in both formats: idct on every ISA at 4-way perfect
// memory, and mpeg2decode/MOM on 4-way multi-address memory.
func goldenPipelines(t *testing.T) []goldenDoc {
	type point struct {
		app  bool
		name string
		isa  ISA
		mem  MemModel
		id   string
	}
	var points []point
	for _, i := range AllISAs {
		points = append(points, point{false, "idct", i, PerfectMemory(1), "pipeline/idct/" + i.String()})
	}
	points = append(points, point{true, "mpeg2decode", MOM, DetailedMemory(MultiAddress), "pipeline/mpeg2decode/MOM/multi"})
	var out []goldenDoc
	for _, p := range points {
		var konata, chrome bytes.Buffer
		opt := PipelineOptions{Start: 1000, Count: 2000, Konata: &konata, Chrome: &chrome}
		var err error
		if p.app {
			_, err = ExportAppPipeline(p.name, p.isa, 4, p.mem, ScaleTest, opt)
		} else {
			_, err = ExportKernelPipeline(p.name, p.isa, 4, p.mem, ScaleTest, opt)
		}
		if err != nil {
			t.Fatalf("%s: %v", p.id, err)
		}
		out = append(out,
			goldenDoc{ID: p.id + "/konata", SHA256: digest(konata.Bytes())},
			goldenDoc{ID: p.id + "/chrome", SHA256: digest(chrome.Bytes())})
	}
	return out
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenDocs recomputes every pinned document and compares it with the
// manifest. On a mismatch it lists each moved entry with its old and new
// digest and prints the regenerated manifest.
func TestGoldenDocs(t *testing.T) {
	var got []goldenDoc
	for _, g := range goldenRequests() {
		key, err := g.req.Key()
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		doc, err := RunJobRequest(context.Background(), g.req)
		if err != nil {
			t.Fatalf("%s: %v", g.id, err)
		}
		got = append(got, goldenDoc{ID: g.id, Key: key, SHA256: digest(doc)})
	}
	got = append(got, goldenTables(t)...)
	got = append(got, goldenPipelines(t)...)
	checkManifest(t, goldenPath, got, func(d goldenDoc) string { return d.ID })
}

// checkManifest compares got with the JSON manifest at path, entry by entry
// under each entry's id. On a mismatch it lists every moved, new and
// vanished entry and prints the regenerated manifest.
func checkManifest[E comparable](t *testing.T, path string, got []E, id func(E) string) {
	t.Helper()
	regenerated, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	regenerated = append(regenerated, '\n')
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v; regenerated manifest:\n%s", err, regenerated)
	}
	var want []E
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	old := map[string]E{}
	for _, w := range want {
		old[id(w)] = w
	}
	moved := false
	for _, g := range got {
		w, ok := old[id(g)]
		delete(old, id(g))
		switch {
		case !ok:
			t.Errorf("%s: not in the manifest (new entry %+v)", id(g), g)
		case w != g:
			t.Errorf("%s: moved: old %+v, new %+v", id(g), w, g)
		default:
			continue
		}
		moved = true
	}
	for k, w := range old {
		t.Errorf("%s: in the manifest (%+v) but no longer computed", k, w)
		moved = true
	}
	if moved {
		t.Logf("regenerated manifest:\n%s", regenerated)
	}
}
