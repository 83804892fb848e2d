package mom

import (
	"fmt"
	"io"
	"strings"
)

// Machine-readable exports of the experiment rows (for plotting the
// figures outside Go).

// WriteFigure5CSV emits kernel,isa,width,cycles,ipc,speedup rows.
func WriteFigure5CSV(w io.Writer, rows []KernelSpeedup) error {
	if _, err := fmt.Fprintln(w, "kernel,isa,width,cycles,ipc,speedup"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%.4f,%.4f\n",
			r.Kernel, r.ISA, r.Width, r.Cycles, r.IPC, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}

// WriteLatencyCSV emits kernel,isa,width,cycles1,cycles50,slowdown rows.
func WriteLatencyCSV(w io.Writer, rows []LatencyRow) error {
	if _, err := fmt.Fprintln(w, "kernel,isa,width,cycles_lat1,cycles_lat50,slowdown"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%d,%d,%.4f\n",
			r.Kernel, r.ISA, r.Width, r.Cycles1, r.Cycles50, r.Slowdown); err != nil {
			return err
		}
	}
	return nil
}

// WriteProfileCSV emits one row per kernel×isa×memory with the full stall
// taxonomy in canonical bucket order.
func WriteProfileCSV(w io.Writer, rows []ProfileRow) error {
	header := "kernel,isa,width,mem,cycles,ipc"
	for _, b := range (Profile{}).Buckets() {
		header += "," + csvBucketName(b.Name)
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%d,%.4f",
			r.Kernel, r.ISA, r.Width, r.MemName, r.Cycles, r.IPC); err != nil {
			return err
		}
		for _, b := range r.Profile.Buckets() {
			if _, err := fmt.Fprintf(w, ",%d", b.Cycles); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// csvBucketName flattens display bucket names into CSV-safe column names.
func csvBucketName(s string) string { return strings.ReplaceAll(s, "/", "_") }

// WriteHotspotsCSV emits one row per workload×isa×static-instruction with
// the full per-PC stall taxonomy and memory-event counts. The asm field is
// quoted (disassembly contains commas).
func WriteHotspotsCSV(w io.Writer, reps []HotspotReport) error {
	header := "workload,isa,width,mem,pc,asm,count,cycles"
	for _, b := range (Profile{}).Buckets() {
		header += "," + csvBucketName(b.Name)
	}
	header += ",l1_misses,l2_misses,mshr_stalls,write_buf_stalls"
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, rep := range reps {
		for _, r := range rep.Rows {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%s,%d,%q,%d,%d",
				rep.Workload, rep.ISA, rep.Width, rep.MemName,
				r.PC, r.Asm, r.Count, r.Cycles); err != nil {
				return err
			}
			for _, b := range r.Profile.Buckets() {
				if _, err := fmt.Fprintf(w, ",%d", b.Cycles); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, ",%d,%d,%d,%d\n",
				r.L1Misses, r.L2Misses, r.MSHRStalls, r.WriteBufStalls); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFigure7CSV emits app,isa,cache,width,cycles,ipc,speedup rows.
func WriteFigure7CSV(w io.Writer, rows []AppSpeedup) error {
	if _, err := fmt.Fprintln(w, "app,isa,cache,width,cycles,ipc,speedup"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%.4f,%.4f\n",
			r.App, r.Config.ISA, r.Config.Cache, r.Width, r.Cycles, r.IPC, r.Speedup); err != nil {
			return err
		}
	}
	return nil
}
