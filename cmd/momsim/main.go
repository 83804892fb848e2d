// Command momsim runs the paper's experiments and prints paper-style
// tables. Examples:
//
//	momsim -exp fig5 -scale bench     # Figure 5 (kernel speed-ups)
//	momsim -exp latency               # Section 4.1 latency tolerance
//	momsim -exp fig7 -scale bench     # Figure 7 (application speed-ups)
//	momsim -exp table1 -isa MOM       # processor configurations
//	momsim -exp table2                # register file area comparison
//	momsim -exp table3                # memory model ports
//	momsim -exp fetch                 # fetch-pressure (ops per instruction)
//	momsim -exp profile               # cycle-attribution breakdown
//	momsim -exp profile -json         # same rows as machine-readable JSON
//	momsim -exp hotspots              # per-PC hotspot listings (annotated disassembly)
//	momsim -kernel motion1 -isa MOM -width 4   # one kernel run
//	momsim -app mpeg2decode -isa MOM -width 8 -cache vector
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	mom "repro"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment: fig5|latency|fig7|table1|table2|table3|fetch|profile|hotspots|isacount|all (or \"list\" to describe each)")
		scale    = flag.String("scale", "test", "workload scale: test|bench")
		isaStr   = flag.String("isa", "MOM", "ISA: Alpha|MMX|MDMX|MOM")
		width    = flag.Int("width", 4, "issue width: 1|2|4|8")
		kernel   = flag.String("kernel", "", "run a single kernel")
		app      = flag.String("app", "", "run a single application")
		cache    = flag.String("cache", "perfect", "memory: perfect|perfect50|conv|multi|vector|collapsing")
		sample   = flag.String("sample", "", "sampled simulation as period:warmup:interval dynamic instructions (fig7|profile|hotspots or single -kernel/-app runs); empty = exact")
		samPar   = flag.Int("sample-par", 0, "sampled-simulation worker count (0 = all host cores, 1 = serial; needs -sample; never changes results)")
		verify   = flag.Bool("verify", false, "verify every workload bit-exactly against the goldens")
		format   = flag.String("format", "table", "experiment output format: table|csv|json")
		asJSON   = flag.Bool("json", false, "emit JSON (shorthand for -format json; also applies to single runs)")
		verbose  = flag.Bool("v", false, "report trace capture/replay timing per experiment")
		traceDir = flag.String("trace-store", "", "persist captured traces in this directory and replay from it on later runs")
		traceMax = flag.Int64("trace-store-bytes", 1<<31, "trace artifact store size bound in bytes (<=0: unbounded; needs -trace-store)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
		memProf  = flag.String("memprofile", "", "write a heap profile to this file at exit (go tool pprof)")
	)
	flag.Parse()
	defer runAtExit()

	// Profiling applies to exact and sampled runs alike; the profile files
	// must be finalised even on the fatal() path, which exits through
	// runAtExit rather than the deferred stack.
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		atExit(func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if *memProf != "" {
		path := *memProf
		atExit(func() {
			f, err := os.Create(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "momsim: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "momsim: memprofile:", err)
			}
		})
	}

	// An interrupt (Ctrl-C / SIGTERM) cancels the experiment context:
	// par.For stops submitting work and the run exits promptly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	sc := mom.ScaleTest
	if *scale == "bench" {
		sc = mom.ScaleBench
	}
	i, err := mom.ParseISA(*isaStr)
	if err != nil {
		fatal(err)
	}
	m, err := mom.ParseMemModel(*cache)
	if err != nil {
		fatal(err)
	}
	sp, err := mom.ParseSampleSpec(*sample)
	if err != nil {
		fatal(err)
	}
	if *traceDir != "" {
		if _, err := mom.OpenTraceArtifacts(*traceDir, *traceMax); err != nil {
			fatal(err)
		}
	}
	if sp.Enabled() && *verify {
		fatal(fmt.Errorf("-sample cannot be combined with -verify (verification is bit-exact by definition)"))
	}
	if *samPar < 0 {
		fatal(fmt.Errorf("-sample-par must be non-negative, got %d", *samPar))
	}
	if *samPar != 0 && *verify {
		fatal(fmt.Errorf("-sample-par cannot be combined with -verify (verification runs the exact path)"))
	}
	if *samPar != 0 && !sp.Enabled() {
		fatal(fmt.Errorf("-sample-par requires -sample (it parallelises the sampled windows)"))
	}
	sp.Parallelism = *samPar
	if *samPar > 1 && *exp != "" {
		for _, e := range strings.Split(*exp, ",") {
			if e == "hotspots" || e == "all" {
				fmt.Fprintln(os.Stderr, "momsim: note: hotspot attribution needs ordered per-instruction events; hotspot runs serialize regardless of -sample-par")
				break
			}
		}
	}
	if *exp != "" {
		// Validate every requested experiment up front, so a typo in a
		// comma-separated list fails with the valid names instead of
		// after the earlier experiments have already run.
		for _, e := range strings.Split(*exp, ",") {
			if err := checkExp(e); err != nil {
				fatal(err)
			}
		}
	}
	outFormat := *format
	if *asJSON {
		outFormat = "json"
	}

	switch {
	case *verify:
		for _, k := range mom.KernelNames() {
			for _, lv := range mom.AllISAs {
				if err := mom.VerifyKernel(k, lv, sc); err != nil {
					fatal(err)
				}
				fmt.Printf("ok  kernel %-14s %s\n", k, lv)
			}
		}
		for _, a := range mom.AppNames() {
			for _, lv := range mom.AllISAs {
				if err := mom.VerifyApp(a, lv, sc); err != nil {
					fatal(err)
				}
				fmt.Printf("ok  app    %-14s %s\n", a, lv)
			}
		}
	case *kernel != "":
		res, err := mom.RunKernelSampled(*kernel, i, *width, m, sc, sp)
		if err != nil {
			fatal(err)
		}
		emitResult(res, outFormat)
	case *app != "":
		res, err := mom.RunAppSampled(*app, i, *width, m, sc, sp)
		if err != nil {
			fatal(err)
		}
		emitResult(res, outFormat)
	case *exp != "":
		for _, e := range strings.Split(*exp, ",") {
			before := mom.ReadTraceStats()
			if err := runExperiment(ctx, e, sc, i, *width, sp, outFormat); err != nil {
				fatal(err)
			}
			if *verbose {
				printTraceStats(e, before, mom.ReadTraceStats())
			}
		}
	default:
		flag.Usage()
		runAtExit()
		os.Exit(2)
	}
}

func runExperiment(ctx context.Context, exp string, sc mom.Scale, i mom.ISA, width int, sp mom.SampleSpec, format string) error {
	asJSON := format == "json"
	asCSV := format == "csv"
	switch exp {
	case "fig7", "profile", "hotspots":
		// the sampled-capable drivers; handled below
	default:
		if sp.Enabled() {
			return fmt.Errorf("experiment %q does not support -sample (valid: fig7, profile, hotspots)", exp)
		}
	}
	switch exp {
	case "list":
		fmt.Print(expList())
	case "fig5":
		rows, err := mom.Figure5(ctx, sc)
		if err != nil {
			return err
		}
		switch {
		case asJSON:
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		case asCSV:
			return mom.WriteFigure5CSV(os.Stdout, rows)
		}
		fmt.Print(mom.FormatFigure5(rows))
	case "latency":
		rows, err := mom.LatencyStudy(ctx, sc, 4)
		if err != nil {
			return err
		}
		switch {
		case asJSON:
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		case asCSV:
			return mom.WriteLatencyCSV(os.Stdout, rows)
		}
		fmt.Print(mom.FormatLatency(rows))
	case "fig7":
		rows, err := mom.Figure7Sampled(ctx, sc, sp)
		if err != nil {
			return err
		}
		switch {
		case asJSON:
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		case asCSV:
			return mom.WriteFigure7CSV(os.Stdout, rows)
		}
		fmt.Print(mom.FormatFigure7(rows))
	case "table1":
		rows := mom.Table1(i)
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		}
		fmt.Print(mom.FormatTable1(rows))
	case "table2":
		rows := mom.Table2()
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		}
		fmt.Print(mom.FormatTable2(rows))
	case "table3":
		rows := mom.Table3()
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		}
		fmt.Print(mom.FormatTable3(rows))
	case "fetch":
		rows, err := mom.FetchPressure(ctx, sc)
		if err != nil {
			return err
		}
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		}
		fmt.Print(mom.FormatFetch(rows))
	case "profile":
		rows, err := mom.ProfileStudySampled(ctx, sc, width, sp)
		if err != nil {
			return err
		}
		switch {
		case asJSON:
			return mom.WriteExperimentJSON(os.Stdout, exp, rows)
		case asCSV:
			return mom.WriteProfileCSV(os.Stdout, rows)
		}
		fmt.Print(mom.FormatProfile(rows))
	case "hotspots":
		reps, err := mom.HotspotStudySampled(ctx, sc, width, sp)
		if err != nil {
			return err
		}
		switch {
		case asJSON:
			return mom.WriteHotspotsJSON(os.Stdout, reps)
		case asCSV:
			return mom.WriteHotspotsCSV(os.Stdout, reps)
		}
		fmt.Print(mom.FormatHotspots(reps))
	case "regsweep":
		var all []mom.RegSweepRow
		for _, k := range []string{"idct", "motion1"} {
			rows, err := mom.RegisterSweep(ctx, sc, k)
			if err != nil {
				return err
			}
			if asJSON {
				all = append(all, rows...)
				continue
			}
			fmt.Printf("physical matrix registers vs performance — %s (4-way MOM)\n", k)
			for _, r := range rows {
				fmt.Printf("  %2d regs: %9d cycles (%.3fx of 32-reg file)\n",
					r.MomPhys, r.Cycles, r.Slowdown)
			}
			fmt.Println()
		}
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, all)
		}
	case "memsweep":
		var all []mom.MemSweepRow
		for _, app := range []string{"mpeg2decode", "jpegdecode"} {
			rows, err := mom.MemorySweep(ctx, sc, app)
			if err != nil {
				return err
			}
			if asJSON {
				all = append(all, rows...)
				continue
			}
			fmt.Printf("memory-system ablation — %s (4-way MOM, multi-address)\n", app)
			for _, r := range rows {
				fmt.Printf("  %d MSHRs, %d banks: %9d cycles (%.3fx of baseline)\n",
					r.MSHRs, r.Banks, r.Cycles, r.Slowdown)
			}
			fmt.Println()
		}
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, all)
		}
	case "isacount":
		mmx, mdmx, momN := mom.ISACounts()
		if asJSON {
			return mom.WriteExperimentJSON(os.Stdout, exp, map[string]int{
				"mmx": mmx, "mdmx": mdmx, "mom": momN,
			})
		}
		fmt.Printf("multimedia instructions: MMX %d, MDMX %d, MOM %d\n", mmx, mdmx, momN)
	case "all":
		for _, e := range []string{"table1", "table2", "table3", "isacount", "fig5", "latency", "fig7", "fetch", "profile", "hotspots"} {
			if err := runExperiment(ctx, e, sc, i, width, sp, format); err != nil {
				return err
			}
			if !asJSON {
				fmt.Println()
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}

// printTraceStats reports what the trace layer did during one experiment:
// captures and replays with their wall-clock totals, and the current cache
// occupancy.
func printTraceStats(exp string, before, after mom.TraceStats) {
	fmt.Printf("# %s traces: %d captured (%v), %d replayed (%v); cache holds %d traces, %.1f MB\n",
		exp, after.Captures-before.Captures, (after.CaptureTime - before.CaptureTime).Round(time.Millisecond),
		after.Replays-before.Replays, (after.ReplayTime - before.ReplayTime).Round(time.Millisecond),
		after.CachedTraces, float64(after.CachedBytes)/(1<<20))
	if st, ok := mom.TraceArtifactStats(); ok {
		fmt.Printf("# %s artifacts: %d disk hits, %d disk misses, %d disk writes; store holds %d artifacts, %.1f MB\n",
			exp, after.DiskHits-before.DiskHits, after.DiskMisses-before.DiskMisses,
			after.DiskWrites-before.DiskWrites, st.Entries, float64(st.Bytes)/(1<<20))
	}
}

// emitResult reports one timed run as a human-readable summary or, with
// -json, as the full machine-readable Result document. Either way the run
// is first checked against the accounting invariants, so a broken counter
// is a hard CLI failure.
func emitResult(r mom.Result, format string) {
	if err := r.CheckInvariants(); err != nil {
		fatal(err)
	}
	if format == "json" {
		if err := mom.WriteResultJSON(os.Stdout, r); err != nil {
			fatal(err)
		}
		return
	}
	fmt.Printf("%s on %s/%d-way, %s memory\n", r.Workload, r.ISA, r.Width, r.MemName)
	fmt.Printf("  cycles        %12d\n", r.Cycles)
	fmt.Printf("  instructions  %12d\n", r.Insts)
	fmt.Printf("  IPC           %12.3f\n", r.IPC())
	if s := r.Sampled; s != nil {
		fmt.Printf("  sampled       %12d windows of %d insts (period %d, warmup %d): %.1f%% coverage, IPC %.3f ± %.3f, est. %d cycles over %d insts\n",
			s.Intervals, s.Interval, s.Period, s.Warmup,
			100*s.Coverage, s.IPCMean, s.IPCStdErr, s.EstCycles, s.TotalInsts)
	}
	fmt.Printf("  word-ops      %12d (%.2f per cycle)\n", r.WordOps, r.OPC())
	fmt.Printf("  branches      %12d (%d mispredicted)\n", r.Branches, r.Mispredicts)
	fmt.Printf("  loads/stores  %12d / %d\n", r.Loads, r.Stores)
	if r.Mem.L1Hits+r.Mem.L1Misses > 0 {
		fmt.Printf("  L1            %12d hits, %d misses\n", r.Mem.L1Hits, r.Mem.L1Misses)
		fmt.Printf("  L2            %12d hits, %d misses\n", r.Mem.L2Hits, r.Mem.L2Misses)
	}
	if r.Mem.VecLoads+r.Mem.VecStores > 0 {
		fmt.Printf("  vector mem    %12d loads, %d stores, %d elements\n",
			r.Mem.VecLoads, r.Mem.VecStores, r.Mem.VecElems)
	}
	var classes []string
	for c := range r.OpMix {
		classes = append(classes, c)
	}
	sort.Slice(classes, func(i, j int) bool { return r.OpMix[classes[i]] > r.OpMix[classes[j]] })
	fmt.Printf("  op mix       ")
	for _, c := range classes {
		fmt.Printf(" %s=%.1f%%", c, 100*float64(r.OpMix[c])/float64(r.Insts))
	}
	fmt.Println()
	fmt.Printf("  cycle profile")
	for _, b := range r.Profile.Buckets() {
		if b.Cycles > 0 {
			fmt.Printf(" %s=%.1f%%", b.Name, 100*float64(b.Cycles)/float64(r.Cycles))
		}
	}
	fmt.Println()
}

// cliExps are the experiment names runExperiment accepts: the canonical
// mom.ExpNames batch drivers plus the CLI-only tables and the "all"
// shorthand ("kernel"/"app" single points use -kernel/-app instead).
var cliExps = []string{
	"fig5", "latency", "fig7", "table1", "table2", "table3",
	"fetch", "profile", "hotspots", "regsweep", "memsweep", "isacount", "all", "list",
}

// cliOnlyDescriptions covers the names outside mom.ExpNames (the static
// tables and the CLI shorthands); everything else is described by
// mom.ExpDescription so the CLI and the batch layer never drift.
var cliOnlyDescriptions = map[string]string{
	"table1":   "processor configurations of the four modelled machines (Table 1)",
	"table2":   "multimedia register-file sizes and area estimates (Table 2)",
	"table3":   "port counts of the modelled memory systems (Table 3)",
	"isacount": "multimedia instruction counts per ISA extension",
	"all":      "every table and experiment above, in order",
	"list":     "print this list",
}

// expList renders every -exp name with its one-line description.
func expList() string {
	var b strings.Builder
	for _, e := range cliExps {
		d := mom.ExpDescription(e)
		if d == "" {
			d = cliOnlyDescriptions[e]
		}
		fmt.Fprintf(&b, "  %-9s %s\n", e, d)
	}
	b.WriteString("single machine points (the \"kernel\"/\"app\" batch experiments) run via -kernel/-app instead\n")
	return b.String()
}

// checkExp validates one -exp name up front, so a typo fails with the
// described list of valid names (mirroring the -isa/-kernel/-app
// validation of momtrace) instead of after earlier experiments in the
// list have run.
func checkExp(e string) error {
	for _, v := range cliExps {
		if e == v {
			return nil
		}
	}
	return fmt.Errorf("unknown experiment %q; valid experiments:\n%s", e, expList())
}

// atExitFns are cleanups (profile finalisers) that must run on every exit
// path. fatal() leaves via os.Exit, which skips deferred calls, so both it
// and main's deferred runAtExit drain this list explicitly.
var atExitFns []func()

func atExit(fn func()) { atExitFns = append(atExitFns, fn) }

func runAtExit() {
	for i := len(atExitFns) - 1; i >= 0; i-- {
		atExitFns[i]()
	}
	atExitFns = nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "momsim:", err)
	runAtExit()
	os.Exit(1)
}
