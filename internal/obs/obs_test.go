package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/mem"
)

// synthEvents builds a small synthetic event stream with overlapping
// lifetimes, a branch and a memory instruction.
func synthEvents() []Event {
	return []Event{
		{Seq: 0, PC: 0, Class: isa.ClassIntSimple,
			Fetch: 0, Dispatch: 1, Issue: 2, Complete: 3, Commit: 4,
			Committed: 1, Bucket: BucketFrontend, ExecGap: 2},
		{Seq: 1, PC: 1, Class: isa.ClassLoad,
			Fetch: 0, Dispatch: 1, Issue: 3, Complete: 9, Commit: 10,
			Committed: 1, Bucket: BucketMemWait, ExecGap: 5,
			Mem: mem.Outcome{L1Misses: 1, L2Hits: 1}},
		{Seq: 2, PC: 2, Class: isa.ClassStore,
			Fetch: 1, Dispatch: 2, Issue: 4, Complete: 5, Commit: 12,
			Committed: 1, StoreGap: 1, Mem: mem.Outcome{WriteBufStalls: 1}},
		{Seq: 3, PC: 0, Class: isa.ClassIntSimple,
			Fetch: 1, Dispatch: 2, Issue: 5, Complete: 6, Commit: 13,
			Committed: 1, Bucket: BucketDepLatency, ExecGap: 0},
		{Seq: 4, PC: 3, Class: isa.ClassBranch, Taken: true,
			Fetch: 2, Dispatch: 3, Issue: 6, Complete: 7, Commit: 14,
			Committed: 1, Bucket: BucketIssueQueue, ExecGap: 1},
	}
}

var synthDisasm = []string{"addq r1, r2, r3", "ldq r4, r1, #8", "stq r4, r5, #0", "bne r4, #-4"}

func feed(o Observer, evs []Event) {
	for i := range evs {
		o.Observe(&evs[i])
	}
}

func TestHotspotAggregation(t *testing.T) {
	h := NewHotspot(len(synthDisasm))
	feed(h, synthEvents())
	if got := h.Count(0); got != 2 {
		t.Errorf("PC 0 count = %d, want 2", got)
	}
	b := h.Buckets(0)
	if b[BucketCommit] != 2 || b[BucketFrontend] != 2 || b[BucketDepLatency] != 0 {
		t.Errorf("PC 0 buckets = %v", b)
	}
	b = h.Buckets(2)
	if b[BucketCommit] != 1 || b[BucketStoreCommit] != 1 {
		t.Errorf("PC 2 buckets = %v", b)
	}
	l1, l2, mshr, wbuf := h.MemEvents(1)
	if l1 != 1 || l2 != 0 || mshr != 0 || wbuf != 0 {
		t.Errorf("PC 1 mem events = %d/%d/%d/%d", l1, l2, mshr, wbuf)
	}
	if _, _, _, wbuf = h.MemEvents(2); wbuf != 1 {
		t.Errorf("PC 2 write-buffer stalls = %d, want 1", wbuf)
	}
}

func TestMulti(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Error("Multi of no live observers should be nil")
	}
	r := &Recorder{}
	if Multi(nil, r) != Observer(r) {
		t.Error("Multi of one live observer should return it unwrapped")
	}
	r2 := &Recorder{}
	feed(Multi(r, r2), synthEvents())
	if len(r.Events) != 5 || len(r2.Events) != 5 {
		t.Errorf("fan-out recorded %d/%d events, want 5/5", len(r.Events), len(r2.Events))
	}
}

func TestKonataRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	k := NewKonata(&buf, 0, 0, synthDisasm)
	feed(k, synthEvents())
	if k.Recorded() != 5 {
		t.Fatalf("recorded %d, want 5", k.Recorded())
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "Kanata\t0004\n") {
		t.Fatalf("missing Kanata header:\n%s", out)
	}
	st, err := ParseKonata(strings.NewReader(out))
	if err != nil {
		t.Fatalf("self-parse: %v\n%s", err, out)
	}
	if st.Insts != 5 || st.Retired != 5 {
		t.Errorf("parsed %d insts, %d retired, want 5/5", st.Insts, st.Retired)
	}
	// Latest commit is cycle 14; the log's cycle cursor must reach it.
	if st.Cycles != 14 {
		t.Errorf("final cycle cursor = %d, want 14", st.Cycles)
	}
}

func TestKonataWindow(t *testing.T) {
	var buf bytes.Buffer
	k := NewKonata(&buf, 1, 2, synthDisasm)
	feed(k, synthEvents())
	if k.Recorded() != 2 {
		t.Fatalf("windowed recorder kept %d, want 2", k.Recorded())
	}
	if err := k.Flush(); err != nil {
		t.Fatal(err)
	}
	st, err := ParseKonata(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st.Insts != 2 || st.Retired != 2 {
		t.Errorf("parsed %d insts, %d retired, want 2/2", st.Insts, st.Retired)
	}
}

func TestParseKonataRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"not a header\n",
		"Kanata\t0004\nS\t0\t0\tF\n",                         // stage on undeclared instruction
		"Kanata\t0004\nI\t0\t0\t0\nS\t0\t0\tF",               // stage still open at EOF
		"Kanata\t0004\nI\t0\t0\t0\nS\t0\t0\tF\nE\t0\t0\tD\n", // mismatched stage close
	} {
		if _, err := ParseKonata(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseKonata accepted %q", bad)
		}
	}
}

func TestChromeTraceValidates(t *testing.T) {
	var buf bytes.Buffer
	c := NewChrome(&buf, 0, 0, synthDisasm)
	feed(c, synthEvents())
	if c.Recorded() != 5 {
		t.Fatalf("recorded %d, want 5", c.Recorded())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace-event JSON: %v", err)
	}
	var insts int
	ends := map[int]int64{} // per-track previous slice end
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Errorf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 {
			t.Errorf("event %q has negative duration %d", ev.Name, ev.Dur)
		}
		if ev.Cat != "inst" {
			continue
		}
		insts++
		if ev.Ts < ends[ev.Tid] {
			t.Errorf("track %d: slice %q at ts %d overlaps previous end %d",
				ev.Tid, ev.Name, ev.Ts, ends[ev.Tid])
		}
		ends[ev.Tid] = ev.Ts + ev.Dur
		if ev.Args["bucket"] == nil || ev.Args["seq"] == nil {
			t.Errorf("slice %q missing args: %v", ev.Name, ev.Args)
		}
	}
	if insts != 5 {
		t.Errorf("trace has %d inst slices, want 5", insts)
	}
	// The load (seq 1) and the overlapping store must land on different
	// tracks; five overlapping instructions cannot fit one track.
	if len(ends) < 2 {
		t.Errorf("overlapping instructions packed onto %d track(s)", len(ends))
	}
}
