package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one timed call the benchmark made: its name, start and end
// relative to the recorder's epoch, and the span that caused it (0 for a
// root span).
type span struct {
	ID, Parent int
	Name       string
	Track      int // client or worker lane, so concurrent spans do not overlap on one track
	Start, End time.Duration
}

// recorder keeps spans in memory until the benchmark exits. A nil
// *recorder records nothing: the untraced run times the same calls through
// it at the cost of two clock reads per call.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// timed runs f inside a span named name under parent and returns f's wall
// time. f receives its own span ID to parent the spans of the calls it
// makes.
func (r *recorder) timed(name string, parent int, f func(id int)) time.Duration {
	return r.timedOn(0, name, parent, f)
}

// timedOn is timed on an explicit track.
func (r *recorder) timedOn(track int, name string, parent int, f func(id int)) time.Duration {
	if r == nil {
		t0 := time.Now()
		f(0)
		return time.Since(t0)
	}
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Track: track})
	r.mu.Unlock()
	t0 := time.Now()
	f(id)
	t1 := time.Now()
	r.mu.Lock()
	s := &r.spans[id-1]
	s.Start, s.End = t0.Sub(r.epoch), t1.Sub(r.epoch)
	r.mu.Unlock()
	return t1.Sub(t0)
}

// opTime is one timed operation: its wall time, and the CPU time every
// thread of the process spent while it ran.
type opTime struct{ wall, cpu time.Duration }

// timedOp is timed that also reads the process CPU time around f.
func (r *recorder) timedOp(name string, parent int, f func()) opTime {
	var cpu time.Duration
	wall := r.timed(name, parent, func(int) {
		c0 := cpuTime()
		f()
		cpu = cpuTime() - c0
	})
	return opTime{wall: wall, cpu: cpu}
}

// cpuTime is the user and system CPU time of every thread of the process.
// Unlike wall time, it leaves out the time the hypervisor runs other
// guests on this one's cores.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes sums, per operation, each span's duration minus the part of
// its interval its child spans cover. A span's operation is its name up to
// the first space; the rest names the unit or trace it ran on.
func selfTimes(spans []span) map[string]time.Duration {
	kids := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		self := s.End - s.Start
		// Children of one parent run one after another on the parent's
		// goroutine, so their intervals do not overlap.
		for _, k := range kids[s.ID] {
			c := spans[k]
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if hi > lo {
				self -= hi - lo
			}
		}
		op, _, _ := strings.Cut(s.Name, " ")
		out[op] += self
	}
	return out
}

// chromeEvent is the "X" complete-event shape the program's own exporters
// (internal/obs, /debug/flights?format=chrome) write, so the benchmark's
// spans open in the same viewers.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace-event JSON.
func writeChrome(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: "perfbench", Ph: "X",
			Ts: us(s.Start), Dur: us(s.End - s.Start), Pid: 0, Tid: s.Track,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
