package obs

import (
	"bufio"
	"fmt"
	"io"
	"sort"
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
