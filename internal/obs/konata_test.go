package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// konataStats summarises a parsed Kanata log.
type konataStats struct {
	Insts   int   // instruction records (I lines)
	Retired int   // retire records (R lines, type 0)
	Cycles  int64 // last cycle minus first cycle
}

// parseKonata validates a Kanata log: header, known commands, numeric
// fields, monotonic cycle stream, stages opened before they are closed and
// every instruction retired. It is the round-trip check for WriteKonata
// output (and accepts the common subset of the format generally).
func parseKonata(r io.Reader) (konataStats, error) {
	var st konataStats
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
		fail := func(format string, args ...any) (konataStats, error) {
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
