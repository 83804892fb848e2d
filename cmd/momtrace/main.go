// Command momtrace replays a kernel's recorded trace and reports dynamic
// statistics: operation mix, vector-length histogram and the stride
// distribution of MOM memory accesses (the inputs to the cache-organisation
// discussion of Section 4.2).
//
//	momtrace -kernel motion1 -isa MOM
//	momtrace -app gsmencode -isa MOM -stats   # trace-encoding statistics
//	momtrace -kernel idct -isa MOM -profile   # timed run + cycle attribution
//	momtrace -kernel idct -isa MOM -hot       # per-PC hotspot listing
//	momtrace -kernel idct -pipe t.json -konata t.kanata   # pipeline traces
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	mom "repro"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// extOf maps the public ISA selector to the internal extension level.
func extOf(level mom.ISA) isa.Ext {
	switch level {
	case mom.Alpha:
		return isa.ExtAlpha
	case mom.MMX:
		return isa.ExtMMX
	case mom.MDMX:
		return isa.ExtMDMX
	}
	return isa.ExtMOM
}

// maxSteps caps dynamic instructions, mirroring the library's own limit.
const maxSteps = 400_000_000

func main() {
	var (
		kernel   = flag.String("kernel", "motion1", "kernel name")
		app      = flag.String("app", "", "application name (overrides -kernel)")
		isaStr   = flag.String("isa", "MOM", "ISA: Alpha|MMX|MDMX|MOM")
		stats    = flag.Bool("stats", false, "record the trace and report encoding and capture/replay statistics")
		profile  = flag.Bool("profile", false, "also run the timing simulator (4-way, perfect memory) and report the cycle-attribution breakdown")
		hot      = flag.Bool("hot", false, "also run the timing simulator and print the per-PC hotspot listing (annotated disassembly)")
		pipe     = flag.String("pipe", "", "write a Chrome trace-event JSON pipeline trace (Perfetto) to this file")
		konata   = flag.String("konata", "", "write a Kanata pipeline log (Konata viewer) to this file")
		trStart  = flag.Uint64("trace-start", 0, "first dynamic instruction the pipeline trace records")
		trInsts  = flag.Uint64("trace-insts", 10000, "dynamic instructions the pipeline trace records (0 = to end of run)")
		storeDir = flag.String("store", "", "trace artifact store directory (capture/replay through it; -export/-import use it too)")
		export   = flag.String("export", "", "write the workload's trace artifact to this file and exit")
		imp      = flag.String("import", "", "read a trace artifact file, verify it against the workload, store it (with -store) and exit")
	)
	flag.Parse()

	level, err := checkFlags(*isaStr, *kernel, *app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "momtrace:", err)
		os.Exit(2)
	}
	var p *isa.Program
	if *app != "" {
		p, err = mom.BuildApp(*app, level, mom.ScaleTest)
	} else {
		p, err = mom.BuildKernel(*kernel, level, mom.ScaleTest)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "momtrace:", err)
		os.Exit(1)
	}
	if *storeDir != "" {
		if _, err := mom.OpenTraceArtifacts(*storeDir, 0); err != nil {
			fmt.Fprintln(os.Stderr, "momtrace:", err)
			os.Exit(1)
		}
	}
	workload := *kernel
	if *app != "" {
		workload = *app
	}
	if *imp != "" {
		importArtifact(*imp, p, *app != "", workload, level)
		return
	}
	if *export != "" {
		exportArtifact(*export, *app != "", workload, level)
		return
	}

	// The analysis replays the workload's recorded trace. Without -stats it
	// takes the trace from the trace layer (memory, the artifact store, or
	// a capture); with -stats it first records the trace itself (timing the
	// capture), reports the encoding, and analyses that replay.
	var src *trace.Reader
	if !*stats {
		tr := mom.CaptureWorkloadTrace(*app != "", workload, level, mom.ScaleTest)
		if tr == nil {
			fmt.Fprintln(os.Stderr, "momtrace: capture failed")
			os.Exit(1)
		}
		src = tr.Reader()
	} else {
		t0 := time.Now()
		tr, err := trace.Capture(emu.New(p), maxSteps, 1<<34)
		if err != nil {
			fmt.Fprintln(os.Stderr, "momtrace: capture:", err)
			os.Exit(1)
		}
		captureT := time.Since(t0)

		t0 = time.Now()
		r := tr.Reader()
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
		replayT := time.Since(t0)

		fmt.Printf("trace encoding: %s\n", p.Name)
		fmt.Printf("  records       %12d\n", tr.Records())
		fmt.Printf("  chunks        %12d\n", tr.Chunks())
		fmt.Printf("  ram bytes     %12d (%.2f bytes/record)\n",
			tr.Bytes(), float64(tr.Bytes())/float64(tr.Records()))
		fmt.Printf("  file bytes    %12d (%.2f bytes/record)\n",
			tr.EncodedSize(), float64(tr.EncodedSize())/float64(tr.Records()))
		fmt.Printf("  capture       %12v (%.1f Minsts/s)\n",
			captureT.Round(time.Microsecond),
			float64(tr.Records())/captureT.Seconds()/1e6)
		fmt.Printf("  replay drain  %12v (%.1f Minsts/s, %.1fx capture)\n",
			replayT.Round(time.Microsecond),
			float64(tr.Records())/replayT.Seconds()/1e6,
			captureT.Seconds()/replayT.Seconds())

		// Skip-drain: move past the whole trace without reconstructing
		// or warming records — the floor under any fast-forward. The
		// Pos/Skipped counters confirm the cursor accounts for every
		// record it passed.
		t0 = time.Now()
		sr := tr.Reader()
		skipped := sr.Skip(tr.Records())
		skipT := time.Since(t0)
		fmt.Printf("  skip drain    %12v (%.1f Minsts/s, %.1fx replay; pos %d, skipped %d)\n",
			skipT.Round(time.Microsecond),
			float64(skipped)/max(skipT.Seconds(), 1e-9)/1e6,
			replayT.Seconds()/max(skipT.Seconds(), 1e-9),
			sr.Pos(), sr.Skipped())

		// Checkpoint sweep: phase 1 of parallel sampled simulation — one
		// functional-warming pass (default regime, 4-way multi-address)
		// that logs, at every window start, the trace cursor and what the
		// period before it changed; the interval workers replay from it.
		sim := cpu.New(cpu.NewConfig(4, extOf(level)),
			mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
		spec := cpu.SampleSpec{
			Period:   mom.DefaultSampleSpec.Period,
			Warmup:   mom.DefaultSampleSpec.Warmup,
			Interval: mom.DefaultSampleSpec.Interval,
		}
		t0 = time.Now()
		sw, err := sim.SweepCheckpoints(tr, maxSteps, spec)
		sweepT := time.Since(t0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "momtrace: checkpoint sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("  ckpt sweep    %12v (%d windows, %.1f KB log, %.1f Minsts/s)\n",
			sweepT.Round(time.Microsecond),
			sw.Windows,
			float64(sw.LogBytes)/1024,
			float64(sw.Insts)/max(sweepT.Seconds(), 1e-9)/1e6)

		// With a store installed, run the same workload through the full
		// artifact layer (disk fill or capture + write-through) and report
		// what the disk did.
		if _, ok := mom.TraceArtifactStats(); ok {
			before := mom.TraceMetrics().Snapshot()
			if mom.CaptureWorkloadTrace(*app != "", workload, level, mom.ScaleTest) == nil {
				fmt.Fprintln(os.Stderr, "momtrace: artifact-layer capture failed")
				os.Exit(1)
			}
			st, _ := mom.TraceArtifactStats()
			fmt.Printf("  artifacts     %s; store holds %d artifacts, %.1f MB\n",
				mom.TraceMetrics().Snapshot().Since(before), st.Entries, float64(st.Bytes)/(1<<20))
		}
		fmt.Println()
		src = tr.Reader()
	}

	classCount := map[isa.Class]uint64{}
	vlHist := map[int]uint64{}
	strideHist := map[int64]uint64{}
	var total, wordOps, taken, branches uint64
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		total++
		classCount[d.Class]++
		switch {
		case d.Class == isa.ClassBranch:
			branches++
			if d.Taken {
				taken++
			}
		case d.Class.IsVector():
			vlHist[d.VL]++
			wordOps += uint64(d.VL)
			if d.Class.IsMem() {
				strideHist[d.Stride]++
			}
		default:
			wordOps++
		}
	}

	fmt.Printf("%s: %d dynamic instructions, %d word-operations (%.2f per inst)\n",
		p.Name, total, wordOps, float64(wordOps)/float64(total))
	fmt.Printf("branches: %d (%.1f%% taken)\n\n", branches, 100*float64(taken)/float64(max(branches, 1)))

	fmt.Println("operation mix:")
	for _, c := range isa.ClassesByCount(classCount) {
		n := classCount[c]
		fmt.Printf("  %-8s %10d (%.1f%%)\n", c, n, 100*float64(n)/float64(total))
	}

	if len(vlHist) > 0 {
		fmt.Println("\nvector length histogram:")
		var vls []int
		for vl := range vlHist {
			vls = append(vls, vl)
		}
		sort.Ints(vls)
		for _, vl := range vls {
			fmt.Printf("  VL=%-3d %10d\n", vl, vlHist[vl])
		}
	}
	if len(strideHist) > 0 {
		fmt.Println("\nvector memory stride histogram (bytes):")
		var strides []int64
		for s := range strideHist {
			strides = append(strides, s)
		}
		sort.Slice(strides, func(i, j int) bool { return strides[i] < strides[j] })
		for _, s := range strides {
			fmt.Printf("  stride %-6d %10d\n", s, strideHist[s])
		}
	}

	if *profile {
		var r mom.Result
		if *app != "" {
			r, err = mom.RunApp(*app, level, 4, mom.PerfectMemory(1), mom.ScaleTest)
		} else {
			r, err = mom.RunKernel(*kernel, level, 4, mom.PerfectMemory(1), mom.ScaleTest)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "momtrace:", err)
			os.Exit(1)
		}
		if err := r.CheckInvariants(); err != nil {
			fmt.Fprintln(os.Stderr, "momtrace:", err)
			os.Exit(1)
		}
		fmt.Printf("\ncycle attribution (4-way, %s memory): %d cycles, IPC %.3f\n",
			r.MemName, r.Cycles, r.IPC())
		for _, b := range r.Profile.Buckets() {
			if b.Cycles == 0 {
				continue
			}
			fmt.Printf("  %-10s %12d (%.1f%%)\n", b.Name, b.Cycles, 100*float64(b.Cycles)/float64(r.Cycles))
		}
	}

	if *hot {
		var rep mom.HotspotReport
		if *app != "" {
			rep, err = mom.AppHotspots(*app, level, 4, mom.PerfectMemory(1), mom.ScaleTest)
		} else {
			rep, err = mom.KernelHotspots(*kernel, level, 4, mom.PerfectMemory(1), mom.ScaleTest)
		}
		if err == nil {
			err = rep.CheckInvariants()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "momtrace:", err)
			os.Exit(1)
		}
		fmt.Println()
		fmt.Print(mom.FormatHotspots([]mom.HotspotReport{rep}))
	}

	if *pipe != "" || *konata != "" {
		opt := mom.PipelineOptions{Start: *trStart, Count: *trInsts}
		var files []*os.File
		open := func(path string) *os.File {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momtrace:", err)
				os.Exit(1)
			}
			files = append(files, f)
			return f
		}
		if *konata != "" {
			opt.Konata = open(*konata)
		}
		if *pipe != "" {
			opt.Chrome = open(*pipe)
		}
		var exp mom.PipelineExport
		if *app != "" {
			exp, err = mom.ExportAppPipeline(*app, level, 4, mom.PerfectMemory(1), mom.ScaleTest, opt)
		} else {
			exp, err = mom.ExportKernelPipeline(*kernel, level, 4, mom.PerfectMemory(1), mom.ScaleTest, opt)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "momtrace:", err)
			os.Exit(1)
		}
		for _, f := range files {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "momtrace:", err)
				os.Exit(1)
			}
		}
		fmt.Printf("\npipeline trace: %d of %d instructions (window %d+%d)",
			exp.Recorded, exp.Result.Insts, *trStart, *trInsts)
		if *konata != "" {
			fmt.Printf(" -> %s", *konata)
		}
		if *pipe != "" {
			fmt.Printf(" -> %s", *pipe)
		}
		fmt.Println()
	}
}

// exportArtifact writes one workload's trace artifact to a file: the
// single-file interchange form of the on-disk store (momtrace -import reads
// it back, anywhere). The trace comes through the artifact layer, so a warm
// -store serves it without re-capturing.
func exportArtifact(path string, app bool, name string, level mom.ISA) {
	tr := mom.CaptureWorkloadTrace(app, name, level, mom.ScaleTest)
	if tr == nil {
		fmt.Fprintln(os.Stderr, "momtrace: capture failed")
		os.Exit(1)
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "momtrace:", err)
		os.Exit(1)
	}
	n, err := tr.WriteTo(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "momtrace: export:", err)
		os.Exit(1)
	}
	fmt.Printf("exported %s: %d records, %d bytes -> %s\n", name, tr.Records(), n, path)
}

// importArtifact reads a trace artifact file, verifies it against the named
// workload (format version, fingerprint, per-frame checksums — a damaged or
// mismatched file is rejected, never half-adopted) and, when a -store is
// open, persists the verified bytes under the workload's content address.
func importArtifact(path string, p *isa.Program, app bool, name string, level mom.ISA) {
	blob, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "momtrace:", err)
		os.Exit(1)
	}
	tr, err := trace.Decode(bytes.NewReader(blob), p)
	if err != nil {
		fmt.Fprintf(os.Stderr, "momtrace: %s does not hold a valid trace of %s: %v\n", path, name, err)
		os.Exit(1)
	}
	fmt.Printf("imported %s: %d records, %d chunks, %d bytes\n", path, tr.Records(), tr.Chunks(), len(blob))
	if s := mom.TraceArtifacts(); s != nil {
		key := mom.TraceArtifactKey(app, name, level, mom.ScaleTest)
		if err := s.Put(key, blob); err != nil {
			fmt.Fprintln(os.Stderr, "momtrace: store:", err)
			os.Exit(1)
		}
		fmt.Printf("stored under %s\n", key)
	}
}

// checkFlags validates the -isa/-kernel/-app combination up front so a typo
// fails with the list of valid names instead of a mid-run build error.
func checkFlags(isaStr, kernel, app string) (mom.ISA, error) {
	level, err := mom.ParseISA(isaStr)
	if err != nil {
		return 0, err
	}
	kernelSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "kernel" {
			kernelSet = true
		}
	})
	if app != "" && kernelSet {
		return 0, fmt.Errorf("-kernel and -app are mutually exclusive (kernels: %s; apps: %s)",
			strings.Join(mom.KernelNames(), ", "), strings.Join(mom.AppNames(), ", "))
	}
	if app != "" {
		for _, n := range mom.AppNames() {
			if n == app {
				return level, nil
			}
		}
		return 0, fmt.Errorf("unknown app %q (valid: %s)", app, strings.Join(mom.AppNames(), ", "))
	}
	for _, n := range mom.KernelNames() {
		if n == kernel {
			return level, nil
		}
	}
	return 0, fmt.Errorf("unknown kernel %q (valid: %s)", kernel, strings.Join(mom.KernelNames(), ", "))
}
