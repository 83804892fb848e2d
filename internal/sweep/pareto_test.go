package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	mom "repro"
)

func pt(workload, isa string, cycles int64, area float64) Point {
	return Point{Exp: "kernel", Workload: workload, ISA: isa, Cycles: cycles, Area: area,
		Key: fmt.Sprintf("k-%s-%s-%d", workload, isa, cycles)}
}

// TestMarkDominated: strict dominance on (cycles, area), ties keep both.
func TestMarkDominated(t *testing.T) {
	points := []Point{
		pt("k", "MOM", 100, 0.87),  // frontier: fewest cycles
		pt("k", "Alpha", 400, 0),   // frontier: zero area
		pt("k", "MMX", 300, 1.0),   // dominated by MOM (fewer cycles, less area)
		pt("k", "MDMX", 250, 1.19), // dominated by MOM
		pt("k", "MOM", 100, 0.87),  // exact tie with point 0: both stay
	}
	markDominated(points)
	want := []bool{false, false, true, true, false}
	for i, w := range want {
		if points[i].Dominated != w {
			t.Errorf("point %d (%s %s): dominated=%v, want %v", i, points[i].ISA, points[i].Workload, points[i].Dominated, w)
		}
	}
}

// TestFrontierKeysOrder: frontier identity is cycles-ascending with
// area/key tiebreaks — stable no matter the point order.
func TestFrontierKeysOrder(t *testing.T) {
	points := []Point{
		pt("b", "Alpha", 400, 0),
		pt("a", "MOM", 100, 0.87),
		pt("c", "MMX", 300, 1.0), // dominated
	}
	markDominated(points)
	got := frontierKeys(points)
	want := []string{points[1].Key, points[0].Key}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("frontier keys %v, want %v", got, want)
	}

	// Same points, shuffled: identical frontier.
	shuffled := []Point{points[2], points[0], points[1]}
	markDominated(shuffled)
	again := frontierKeys(shuffled)
	if len(again) != 2 || again[0] != want[0] || again[1] != want[1] {
		t.Fatalf("shuffled frontier keys %v, want %v", again, want)
	}
}

// TestMemFrontier: one row per memory model ranked by MemModelNames
// order; a row is dominated when a simpler configuration reaches its IPC.
func TestMemFrontier(t *testing.T) {
	mk := func(mem string, ipc float64, key string) Point {
		return Point{Mem: mem, IPC: ipc, Key: key}
	}
	points := []Point{
		mk("perfect", 2.0, "a"),
		mk("perfect", 1.5, "b"),    // not the best perfect point
		mk("perfect50", 1.2, "c"),  // dominated: perfect is simpler-ranked and faster
		mk("collapsing", 2.5, "d"), // frontier: beats every simpler model
		mk("conv", 1.0, "e"),       // dominated
	}
	rows := memFrontier(points)
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	byMem := map[string]MemFrontierRow{}
	for i, row := range rows {
		byMem[row.Mem] = row
		if i > 0 && rows[i-1].Rank >= row.Rank {
			t.Fatalf("rows not rank-ordered: %+v", rows)
		}
	}
	if r := byMem["perfect"]; r.IPC != 2.0 || r.Key != "a" || r.Dominated {
		t.Errorf("perfect row %+v, want best point a undominated", r)
	}
	if r := byMem["perfect50"]; !r.Dominated {
		t.Errorf("perfect50 row %+v, want dominated by perfect", r)
	}
	if r := byMem["collapsing"]; r.Dominated || r.IPC != 2.5 {
		t.Errorf("collapsing row %+v, want undominated frontier", r)
	}
	if r := byMem["conv"]; !r.Dominated {
		t.Errorf("conv row %+v, want dominated", r)
	}
}

// TestReduce: kernel/app points reduce with metrics from their canonical
// documents (sampled documents contribute whole-stream estimates); other
// experiments are counted, not reduced; missing documents are errors.
func TestReduce(t *testing.T) {
	reqs := []mom.JobRequest{
		{Exp: "kernel", Kernel: "motion1", ISA: "MOM", Width: 4, Mem: "perfect", Scale: "test"},
		{Exp: "fig5", Scale: "test"},
		{Exp: "app", App: "mpeg2decode", ISA: "MMX", Width: 4, Mem: "conv", Scale: "test",
			SamplePeriod: 1501, SampleWarmup: 100, SampleInterval: 150},
	}
	for i := range reqs {
		n, err := reqs[i].Normalized()
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = n
	}
	docs := Results{}
	k0, _ := reqs[0].Key()
	k1, _ := reqs[1].Key()
	k2, _ := reqs[2].Key()
	docs[k0] = []byte(`{"schema":2,"workload":"motion1","cycles":1000,"insts":500}`)
	docs[k1] = []byte(`{"schema":2,"experiment":"fig5","rows":[]}`)
	docs[k2] = []byte(`{"schema":2,"workload":"mpeg2decode","cycles":90,"insts":60,` +
		`"sampled":{"total_insts":6000,"est_cycles":9000,"ipc_mean":0.66}}`)

	points, skipped, err := Reduce(reqs, docs)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Errorf("skipped %d, want 1 (the fig5 grid point)", skipped)
	}
	if len(points) != 2 {
		t.Fatalf("got %d points, want 2", len(points))
	}
	p := points[0]
	if p.Cycles != 1000 || p.Insts != 500 || p.IPC != 0.5 || p.Area < 0.75 || p.Area > 1.0 {
		t.Errorf("exact kernel point %+v", p)
	}
	q := points[1]
	if q.Cycles != 9000 || q.Insts != 6000 || q.Sample != "1501:100:150" {
		t.Errorf("sampled app point should adopt whole-stream estimates: %+v", q)
	}
	if q.IPC != float64(6000)/float64(9000) {
		t.Errorf("sampled IPC %f", q.IPC)
	}

	delete(docs, k0)
	if _, _, err := Reduce(reqs, docs); err == nil {
		t.Fatal("Reduce accepted a grid with a missing document")
	}
}

// TestReportRoundTrip: WriteJSON output decodes back into the same
// report; CSV and table writers accept the same report.
func TestReportRoundTrip(t *testing.T) {
	points := []Point{pt("motion1", "MOM", 100, 0.87), pt("motion1", "MMX", 300, 1.0)}
	markDominated(points)
	rep := &Report{
		Schema: mom.SchemaVersion, Sweep: "t", Spec: mom.SweepSpec{Name: "t", Exps: []string{"kernel"}},
		Points: points, AreaFrontier: frontierKeys(points), MemFrontier: memFrontier(points),
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != mom.SchemaVersion || back.Sweep != "t" || len(back.Points) != 2 || len(back.AreaFrontier) != 1 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	var csvBuf, tblBuf bytes.Buffer
	if err := rep.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csvBuf.String(), "\n"); lines != 3 {
		t.Errorf("CSV has %d lines, want header + 2 points", lines)
	}
	if err := rep.WriteTable(&tblBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tblBuf.String(), "Pareto frontier") {
		t.Errorf("table output:\n%s", tblBuf.String())
	}
}
