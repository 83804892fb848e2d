package obs

import (
	"encoding/json"
	"io"
)

// ChromeWriter exports the pipeline lifetimes of a (windowed) slice of the
// dynamic instruction stream as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing. One simulated cycle maps
// to one microsecond of trace time. Each instruction becomes a complete
// ("X") slice named by its disassembly, spanning fetch to commit, with
// nested child slices for the four pipeline stages (F/D/X/C); instructions
// are packed onto the fewest tracks (tids) such that slices on a track
// never overlap, so the track count visualises the in-flight window.
type ChromeWriter struct {
	w      io.Writer
	start  uint64
	count  uint64
	disasm []string
	recs   []Event
}

// NewChrome returns a writer recording count instructions starting at
// dynamic instruction start (count 0 records to the end of the run).
func NewChrome(w io.Writer, start, count uint64, disasm []string) *ChromeWriter {
	return &ChromeWriter{w: w, start: start, count: count, disasm: disasm}
}

// Observe buffers one instruction if it falls inside the window.
func (c *ChromeWriter) Observe(ev *Event) {
	if ev.Seq < c.start || (c.count > 0 && ev.Seq >= c.start+c.count) {
		return
	}
	c.recs = append(c.recs, *ev)
}

// Recorded returns the number of instructions buffered so far.
func (c *ChromeWriter) Recorded() int { return len(c.recs) }

// TraceEvent is one Chrome trace-event record: a complete ("X") slice, or
// a metadata ("M") record such as a process name. Every Chrome export in
// the program writes this shape.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace encodes events as one trace-event JSON document.
func WriteTrace(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []TraceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"})
}

func (c *ChromeWriter) label(pc int) string {
	if pc >= 0 && pc < len(c.disasm) {
		return c.disasm[pc]
	}
	return "@?"
}

// Flush writes the buffered window as a trace-event JSON document.
func (c *ChromeWriter) Flush() error {
	var events []TraceEvent
	// Greedy track packing: an instruction takes the lowest track whose
	// previous occupant committed before this one fetched.
	var trackFree []int64
	for _, ev := range c.recs {
		end := ev.Commit + 1
		tid := -1
		for t, free := range trackFree {
			if free <= ev.Fetch {
				tid = t
				break
			}
		}
		if tid < 0 {
			tid = len(trackFree)
			trackFree = append(trackFree, 0)
		}
		trackFree[tid] = end
		args := map[string]any{
			"seq":       ev.Seq,
			"pc":        ev.PC,
			"class":     ev.Class.String(),
			"bucket":    ev.Bucket.String(),
			"exec_gap":  ev.ExecGap,
			"store_gap": ev.StoreGap,
		}
		if ev.Mem.L1Misses+ev.Mem.L2Misses+ev.Mem.MSHRStalls+ev.Mem.WriteBufStalls > 0 {
			args["l1_misses"] = ev.Mem.L1Misses
			args["l2_misses"] = ev.Mem.L2Misses
			args["mshr_stalls"] = ev.Mem.MSHRStalls
			args["write_buf_stalls"] = ev.Mem.WriteBufStalls
		}
		events = append(events, TraceEvent{
			Name: c.label(ev.PC), Cat: "inst", Ph: "X",
			Ts: ev.Fetch, Dur: end - ev.Fetch, Pid: 0, Tid: tid, Args: args,
		})
		stages := [4]struct {
			name     string
			from, to int64
		}{
			{"F", ev.Fetch, ev.Dispatch},
			{"D", ev.Dispatch, ev.Issue},
			{"X", ev.Issue, ev.Complete},
			{"C", ev.Complete, end},
		}
		for _, s := range stages {
			dur := s.to - s.from
			if dur < 0 {
				dur = 0
			}
			events = append(events, TraceEvent{
				Name: s.name, Cat: "stage", Ph: "X",
				Ts: s.from, Dur: dur, Pid: 0, Tid: tid,
			})
		}
	}
	return WriteTrace(c.w, events)
}
