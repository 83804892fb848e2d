package sweep

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	mom "repro"
)

// Report is the deliverable of a sweep: every reduced point with its
// dominance marking, plus the two Pareto frontiers. It holds nothing
// about execution (no timings, hit counts or host details — those are
// Stats, printed to stderr), so the same spec yields byte-identical
// report documents whether it ran in-process, against a momserver, or
// split across both.
type Report struct {
	Schema int           `json:"schema"`
	Sweep  string        `json:"sweep,omitempty"` // spec name
	Spec   mom.SweepSpec `json:"spec"`
	Points []Point       `json:"points"` // in expansion order
	// AreaFrontier: keys of the undominated points of the cycles-versus-
	// register-file-area trade-off, cheapest cycles first.
	AreaFrontier []string `json:"area_frontier"`
	// MemFrontier: best IPC per memory configuration against the
	// configuration's complexity rank.
	MemFrontier []MemFrontierRow `json:"mem_frontier"`
	// Refined: the sampled-first/exact-refine pass ran; FrontierChanged
	// records whether exact re-runs re-ranked the sampled frontier.
	Refined         bool `json:"refined"`
	FrontierChanged bool `json:"frontier_changed,omitempty"`
}

// WriteJSON emits the report as a single-line document, the same envelope
// style as the experiment documents.
func (r *Report) WriteJSON(w io.Writer) error {
	return json.NewEncoder(w).Encode(r)
}

// WriteCSV emits one row per point. Column order is part of the format;
// rows come out in expansion order like the JSON points list.
func (r *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"exp", "workload", "isa", "width", "mem", "scale", "sample",
		"cycles", "insts", "ipc", "area", "dominated", "refined", "key",
	}); err != nil {
		return err
	}
	for _, p := range r.Points {
		if err := cw.Write([]string{
			p.Exp, p.Workload, p.ISA, strconv.Itoa(p.Width), p.Mem, p.Scale, p.Sample,
			strconv.FormatInt(p.Cycles, 10), strconv.FormatUint(p.Insts, 10),
			strconv.FormatFloat(p.IPC, 'f', 4, 64), strconv.FormatFloat(p.Area, 'f', 4, 64),
			strconv.FormatBool(p.Dominated), strconv.FormatBool(p.Refined), p.Key,
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTable renders the human-readable report: the cycles-versus-area
// trade-off with frontier points starred, then the IPC-versus-memory
// rows. Points print in expansion order so the table is as reproducible
// as the JSON.
func (r *Report) WriteTable(w io.Writer) error {
	name := r.Sweep
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(w, "design-space sweep %s: %d points, %d on the cycles/area frontier\n",
		name, len(r.Points), len(r.AreaFrontier))

	fmt.Fprintf(w, "\ncycles vs register-file area (* = Pareto frontier)\n")
	fmt.Fprintf(w, "  %-1s %-14s %-6s %5s %-10s %12s %8s %8s %s\n",
		"", "workload", "isa", "width", "mem", "cycles", "ipc", "area", "note")
	for _, p := range r.Points {
		mark := "*"
		if p.Dominated {
			mark = " "
		}
		note := ""
		if p.Sample != "" {
			note = "sampled " + p.Sample
			if p.Refined {
				note = "refined exact"
			}
		}
		fmt.Fprintf(w, "  %-1s %-14s %-6s %5d %-10s %12d %8.3f %8.3f %s\n",
			mark, p.Workload, p.ISA, p.Width, p.Mem, p.Cycles, p.IPC, p.Area, note)
	}

	fmt.Fprintf(w, "\nbest IPC vs memory configuration (* = Pareto frontier, ranked simplest first)\n")
	fmt.Fprintf(w, "  %-1s %4s %-10s %8s\n", "", "rank", "mem", "ipc")
	for _, row := range r.MemFrontier {
		mark := "*"
		if row.Dominated {
			mark = " "
		}
		fmt.Fprintf(w, "  %-1s %4d %-10s %8.3f\n", mark, row.Rank, row.Mem, row.IPC)
	}
	if r.Refined {
		verdict := "confirmed the sampled ranking"
		if r.FrontierChanged {
			verdict = "re-ranked the sampled frontier"
		}
		fmt.Fprintf(w, "\nexact refinement %s.\n", verdict)
	}
	return nil
}
