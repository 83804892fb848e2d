package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// konataCmd is one log line pinned to a cycle; ord keeps a stable
// within-cycle order (ends before starts before retires is not required by
// the format, but per-instruction command order must be preserved).
type konataCmd struct {
	cycle int64
	sid   int
	ord   int
	text  string
}

// WriteKonata writes events — one window of the dynamic instruction
// stream in program order, as a Recorder keeps it — in the Kanata log
// format (version 0004), the input of the Konata pipeline viewer (also
// produced by gem5's O3PipeView converters). disasm supplies the per-PC
// label text. Each instruction renders as four stages on lane 0:
//
//	F  fetch   -> dispatch   (front-end)
//	D  dispatch -> issue     (rename/queue wait)
//	X  issue   -> complete   (execute, including memory wait)
//	C  complete -> commit    (waiting for in-order graduation)
//
// The per-instruction records are interleaved into one cycle-ordered
// command stream.
func WriteKonata(w io.Writer, events []Event, disasm []string) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "Kanata\t0004\n"); err != nil {
		return err
	}
	var cmds []konataCmd
	for sid := range events {
		ev := &events[sid]
		ord := 0
		add := func(cycle int64, format string, args ...any) {
			cmds = append(cmds, konataCmd{cycle, sid, ord, fmt.Sprintf(format, args...)})
			ord++
		}
		add(ev.Fetch, "I\t%d\t%d\t0", sid, ev.Seq)
		add(ev.Fetch, "L\t%d\t0\t%d: %s", sid, ev.Seq, label(disasm, ev.PC))
		add(ev.Fetch, "L\t%d\t1\tpc:%d bucket:%s exec:%d store:%d", sid, ev.PC, ev.Bucket, ev.ExecGap, ev.StoreGap)
		add(ev.Fetch, "S\t%d\t0\tF", sid)
		add(ev.Dispatch, "E\t%d\t0\tF", sid)
		add(ev.Dispatch, "S\t%d\t0\tD", sid)
		add(ev.Issue, "E\t%d\t0\tD", sid)
		add(ev.Issue, "S\t%d\t0\tX", sid)
		add(ev.Complete, "E\t%d\t0\tX", sid)
		add(ev.Complete, "S\t%d\t0\tC", sid)
		add(ev.Commit, "E\t%d\t0\tC", sid)
		add(ev.Commit, "R\t%d\t%d\t0", sid, sid)
	}
	sort.SliceStable(cmds, func(a, b int) bool {
		if cmds[a].cycle != cmds[b].cycle {
			return cmds[a].cycle < cmds[b].cycle
		}
		if cmds[a].sid != cmds[b].sid {
			return cmds[a].sid < cmds[b].sid
		}
		return cmds[a].ord < cmds[b].ord
	})
	cur := int64(-1)
	for i, c := range cmds {
		if i == 0 {
			if _, err := fmt.Fprintf(bw, "C=\t%d\n", c.cycle); err != nil {
				return err
			}
			cur = c.cycle
		} else if c.cycle > cur {
			if _, err := fmt.Fprintf(bw, "C\t%d\n", c.cycle-cur); err != nil {
				return err
			}
			cur = c.cycle
		}
		if _, err := fmt.Fprintln(bw, c.text); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// KonataStats summarises a parsed Kanata log (the format self-check).
type KonataStats struct {
	Insts   int   // instruction records (I lines)
	Retired int   // retire records (R lines, type 0)
	Labels  int   // label lines
	Cycles  int64 // last cycle minus first cycle
}

// ParseKonata validates a Kanata log: header, known commands, numeric
// fields, monotonic cycle stream, stages opened before they are closed and
// every instruction retired. It is the round-trip check for WriteKonata
// output (and accepts the common subset of the format generally).
func ParseKonata(r io.Reader) (KonataStats, error) {
	var st KonataStats
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return st, fmt.Errorf("konata: empty log")
	}
	if h := sc.Text(); h != "Kanata\t0004" {
		return st, fmt.Errorf("konata: bad header %q", h)
	}
	var cur, first int64
	haveCycle := false
	open := map[string]string{} // sid -> currently open stage ("" = none)
	retired := map[string]bool{}
	line := 1
	for sc.Scan() {
		line++
		f := strings.Split(sc.Text(), "\t")
		fail := func(format string, args ...any) (KonataStats, error) {
			return st, fmt.Errorf("konata: line %d: %s", line, fmt.Sprintf(format, args...))
		}
		num := func(s string) (int64, error) { return strconv.ParseInt(s, 10, 64) }
		switch f[0] {
		case "C=":
			if len(f) != 2 {
				return fail("C= wants 1 field")
			}
			n, err := num(f[1])
			if err != nil {
				return fail("bad cycle %q", f[1])
			}
			cur, first, haveCycle = n, n, true
		case "C":
			if len(f) != 2 {
				return fail("C wants 1 field")
			}
			n, err := num(f[1])
			if err != nil || n < 0 {
				return fail("bad cycle delta %q", f[1])
			}
			cur += n
		case "I":
			if len(f) != 4 {
				return fail("I wants 3 fields")
			}
			if _, ok := open[f[1]]; ok {
				return fail("duplicate instruction id %s", f[1])
			}
			open[f[1]] = ""
			st.Insts++
		case "L":
			if len(f) < 4 {
				return fail("L wants 3+ fields")
			}
			if _, ok := open[f[1]]; !ok {
				return fail("label for unknown id %s", f[1])
			}
			st.Labels++
		case "S":
			if len(f) != 4 {
				return fail("S wants 3 fields")
			}
			stage, ok := open[f[1]]
			if !ok {
				return fail("stage start for unknown id %s", f[1])
			}
			if stage != "" {
				return fail("id %s starts %s with %s still open", f[1], f[3], stage)
			}
			open[f[1]] = f[3]
		case "E":
			if len(f) != 4 {
				return fail("E wants 3 fields")
			}
			stage, ok := open[f[1]]
			if !ok {
				return fail("stage end for unknown id %s", f[1])
			}
			if stage != f[3] {
				return fail("id %s ends %s but %q is open", f[1], f[3], stage)
			}
			open[f[1]] = ""
		case "R":
			if len(f) != 4 {
				return fail("R wants 3 fields")
			}
			if _, ok := open[f[1]]; !ok {
				return fail("retire of unknown id %s", f[1])
			}
			if retired[f[1]] {
				return fail("id %s retired twice", f[1])
			}
			retired[f[1]] = true
			if f[3] == "0" {
				st.Retired++
			}
		case "W": // dependency edges are legal but WriteKonata never emits them
		default:
			return fail("unknown command %q", f[0])
		}
		if !haveCycle && (f[0] == "I" || f[0] == "S" || f[0] == "E" || f[0] == "R") {
			return fail("command before any C=")
		}
	}
	if err := sc.Err(); err != nil {
		return st, err
	}
	for id, stage := range open {
		if stage != "" {
			return st, fmt.Errorf("konata: id %s ends with stage %s open", id, stage)
		}
		if !retired[id] {
			return st, fmt.Errorf("konata: id %s never retired", id)
		}
	}
	st.Cycles = cur - first
	return st, nil
}
