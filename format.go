package mom

import (
	"fmt"
	"sort"
	"strings"
)

// Text formatting for the experiment outputs (paper-style tables).

// FormatFigure5 renders the kernel speed-up study: one block per kernel,
// ISAs as rows and issue widths as columns (speed-up vs 1-way Alpha).
func FormatFigure5(rows []KernelSpeedup) string {
	var sb strings.Builder
	kernels := orderedKeys(rows, func(r KernelSpeedup) string { return r.Kernel })
	sb.WriteString("Figure 5 — kernel speed-up vs 1-way Alpha (perfect memory)\n")
	for _, k := range kernels {
		fmt.Fprintf(&sb, "\n%s\n", k)
		fmt.Fprintf(&sb, "  %-6s %8s %8s %8s %8s\n", "", "1-way", "2-way", "4-way", "8-way")
		for _, i := range AllISAs {
			fmt.Fprintf(&sb, "  %-6s", i)
			for _, w := range Widths {
				for _, r := range rows {
					if r.Kernel == k && r.ISA == i && r.Width == w {
						fmt.Fprintf(&sb, " %8.2f", r.Speedup)
					}
				}
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// FormatLatency renders the latency-tolerance study.
func FormatLatency(rows []LatencyRow) string {
	var sb strings.Builder
	sb.WriteString("Memory-latency tolerance — slowdown when latency goes 1 -> 50 cycles\n\n")
	kernels := orderedKeys(rows, func(r LatencyRow) string { return r.Kernel })
	fmt.Fprintf(&sb, "  %-14s %8s %8s %8s %8s\n", "kernel", "Alpha", "MMX", "MDMX", "MOM")
	for _, k := range kernels {
		fmt.Fprintf(&sb, "  %-14s", k)
		for _, i := range AllISAs {
			for _, r := range rows {
				if r.Kernel == k && r.ISA == i {
					fmt.Fprintf(&sb, " %7.2fx", r.Slowdown)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatFigure7 renders the program-level study.
func FormatFigure7(rows []AppSpeedup) string {
	var sb strings.Builder
	sb.WriteString("Figure 7 — application speed-up vs Alpha/conventional cache\n")
	apps := orderedKeys(rows, func(r AppSpeedup) string { return r.App })
	for _, a := range apps {
		fmt.Fprintf(&sb, "\n%s\n", a)
		fmt.Fprintf(&sb, "  %-26s %8s %8s\n", "", "4-way", "8-way")
		for _, cfg := range Figure7Configs {
			fmt.Fprintf(&sb, "  %-26s", cfg.String())
			for _, w := range []int{4, 8} {
				for _, r := range rows {
					if r.App == a && r.Config == cfg && r.Width == w {
						fmt.Fprintf(&sb, " %8.2f", r.Speedup)
					}
				}
			}
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// FormatTable1 renders the processor configurations.
func FormatTable1(rows []Table1Row) string {
	keys := []string{
		"ROB size", "Load/Store queue", "Bimodal predictor", "BTB entries",
		"INT simple/complex", "FP simple/complex", "MED simple/complex",
		"memory ports", "INT log/ph", "FP log/ph",
	}
	var sb strings.Builder
	sb.WriteString("Table 1 — processor configurations\n\n")
	fmt.Fprintf(&sb, "  %-20s", "")
	for _, r := range rows {
		fmt.Fprintf(&sb, " %14s", r.Name)
	}
	sb.WriteString("\n")
	for _, k := range keys {
		fmt.Fprintf(&sb, "  %-20s", k)
		for _, r := range rows {
			fmt.Fprintf(&sb, " %14s", r.Values[k])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatTable2 renders the register-file comparison.
func FormatTable2(rows []Table2Entry) string {
	var sb strings.Builder
	sb.WriteString("Table 2 — multimedia register file configurations (4-way machine)\n\n")
	fmt.Fprintf(&sb, "  %-24s %10s %10s %10s\n", "", rows[0].ISA, rows[1].ISA, rows[2].ISA)
	get := func(f func(Table2Entry) string) []string {
		var out []string
		for _, r := range rows {
			out = append(out, f(r))
		}
		return out
	}
	emit := func(label string, vals []string) {
		fmt.Fprintf(&sb, "  %-24s %10s %10s %10s\n", label, vals[0], vals[1], vals[2])
	}
	emit("MEDIA log/ph registers", get(func(r Table2Entry) string { return r.MediaRegs }))
	emit("ACC log/ph registers", get(func(r Table2Entry) string { return r.AccRegs }))
	emit("MEDIA rd/wr ports", get(func(r Table2Entry) string { return r.MediaPorts }))
	emit("ACC rd/wr ports", get(func(r Table2Entry) string { return r.AccPorts }))
	emit("Register file size", get(func(r Table2Entry) string {
		return fmt.Sprintf("%.2f K", float64(r.SizeBytes)/1024)
	}))
	emit("Normalized area cost", get(func(r Table2Entry) string {
		return fmt.Sprintf("%.2f", r.NormalizedArea)
	}))
	return sb.String()
}

// FormatTable3 renders the memory-model port configurations.
func FormatTable3(rows []Table3Row) string {
	var sb strings.Builder
	sb.WriteString("Table 3 — port configuration of the memory models\n\n")
	keys := []string{"L1 #ports", "L1 #banks", "L1 latency", "L2 #ports", "L2 latency"}
	fmt.Fprintf(&sb, "  %-22s %6s  %s\n", "model", "width", strings.Join(keys, " | "))
	for _, r := range rows {
		var vals []string
		for _, k := range keys {
			v := r.Values[k]
			if v == "" {
				v = "-"
			}
			vals = append(vals, v)
		}
		fmt.Fprintf(&sb, "  %-22s %6d  %s\n", r.Model, r.Width, strings.Join(vals, " | "))
	}
	return sb.String()
}

// FormatProfile renders the cycle-attribution study: one block per
// kernel×memory, ISAs as rows, the stall taxonomy as columns (percent of
// total cycles, which sum to 100 by construction).
func FormatProfile(rows []ProfileRow) string {
	var sb strings.Builder
	sb.WriteString("Cycle attribution — % of cycles per stall bucket (buckets sum to Cycles)\n")
	type group struct{ kernel, mem string }
	var groups []group
	seen := map[group]bool{}
	for _, r := range rows {
		g := group{r.Kernel, r.MemName}
		if !seen[g] {
			seen[g] = true
			groups = append(groups, g)
		}
	}
	for _, g := range groups {
		fmt.Fprintf(&sb, "\n%s / %s\n", g.kernel, g.mem)
		fmt.Fprintf(&sb, "  %-6s %12s", "", "cycles")
		for _, b := range (Profile{}).Buckets() {
			fmt.Fprintf(&sb, " %9s", b.Name)
		}
		sb.WriteString("\n")
		for _, i := range AllISAs {
			for _, r := range rows {
				if r.Kernel != g.kernel || r.MemName != g.mem || r.ISA != i {
					continue
				}
				fmt.Fprintf(&sb, "  %-6s %12d", r.ISA, r.Cycles)
				for _, b := range r.Profile.Buckets() {
					fmt.Fprintf(&sb, " %8.1f%%", 100*float64(b.Cycles)/float64(r.Cycles))
				}
				sb.WriteString("\n")
			}
		}
	}
	return sb.String()
}

// FormatFetch renders the fetch-pressure comparison.
func FormatFetch(rows []FetchRow) string {
	var sb strings.Builder
	sb.WriteString("Fetch pressure — word operations packed per dynamic instruction\n\n")
	kernels := orderedKeys(rows, func(r FetchRow) string { return r.Kernel })
	fmt.Fprintf(&sb, "  %-14s %8s %8s %8s %8s\n", "kernel", "Alpha", "MMX", "MDMX", "MOM")
	for _, k := range kernels {
		fmt.Fprintf(&sb, "  %-14s", k)
		for _, i := range AllISAs {
			for _, r := range rows {
				if r.Kernel == k && r.ISA == i {
					fmt.Fprintf(&sb, " %8.2f", r.OpsPerInst)
				}
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// FormatHotspots renders per-PC hotspot reports as annotated disassembly
// listings: one block per workload×ISA, every executed static instruction
// with its dynamic count, attributed cycles (with percent of the run) and
// dominant stall bucket, plus memory-event counts when present.
func FormatHotspots(reps []HotspotReport) string {
	var sb strings.Builder
	sb.WriteString("Per-PC hotspots — attributed cycles per static instruction (rows sum to Cycles)\n")
	for _, rep := range reps {
		fmt.Fprintf(&sb, "\n%s / %s / %d-way / %s: %d cycles, %d insts, IPC %.3f\n",
			rep.Workload, rep.ISA, rep.Width, rep.MemName, rep.Cycles, rep.Insts,
			float64(rep.Insts)/float64(max(rep.Cycles, 1)))
		fmt.Fprintf(&sb, "  %4s  %-40s %10s %12s %6s  %-10s %s\n",
			"pc", "asm", "count", "cycles", "%", "bucket", "mem events")
		for _, r := range rep.Rows {
			name, cyc := dominantBucket(r.Profile)
			memev := ""
			if r.L1Misses+r.L2Misses+r.MSHRStalls+r.WriteBufStalls > 0 {
				memev = fmt.Sprintf("L1m %d L2m %d mshr %d wbuf %d",
					r.L1Misses, r.L2Misses, r.MSHRStalls, r.WriteBufStalls)
			}
			pct := 100 * float64(r.Cycles) / float64(max(rep.Cycles, 1))
			fmt.Fprintf(&sb, "  %4d  %-40s %10d %12d %5.1f%%  %-10s %s\n",
				r.PC, r.Asm, r.Count, r.Cycles, pct, fmt.Sprintf("%s %d", name, cyc), memev)
		}
	}
	return sb.String()
}

// dominantBucket returns the largest bucket of a profile (display name and
// cycles), preferring the earlier bucket in canonical order on ties.
func dominantBucket(p Profile) (string, int64) {
	buckets := p.Buckets()
	best := buckets[0]
	for _, b := range buckets[1:] {
		if b.Cycles > best.Cycles {
			best = b
		}
	}
	return best.Name, best.Cycles
}

// orderedKeys extracts unique keys preserving first-seen order.
func orderedKeys[T any](rows []T, key func(T) string) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range rows {
		k := key(r)
		if !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}

// SortRowsFigure5 orders rows kernel-major for stable output.
func SortRowsFigure5(rows []KernelSpeedup) {
	sort.SliceStable(rows, func(a, b int) bool {
		if rows[a].Kernel != rows[b].Kernel {
			return rows[a].Kernel < rows[b].Kernel
		}
		if rows[a].ISA != rows[b].ISA {
			return rows[a].ISA < rows[b].ISA
		}
		return rows[a].Width < rows[b].Width
	})
}
