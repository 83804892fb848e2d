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
	"reflect"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

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
		samPar   = flag.Int("sample-par", 0, "sampled-simulation worker count (0 = all host cores, 1 = serial; needs -sample; hotspot runs are serial; never changes results)")
		verify   = flag.Bool("verify", false, "verify every workload bit-exactly against the goldens")
		format   = flag.String("format", "table", "experiment output format: table|csv|json")
		asJSON   = flag.Bool("json", false, "emit JSON (shorthand for -format json; also applies to single runs)")
		verbose  = flag.Bool("v", false, "report the trace layer's counters per experiment")
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

	// Every flag is checked up front, whatever the mode, so a typo fails
	// before anything runs.
	sc, err := mom.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	i, err := mom.ParseISA(*isaStr)
	if err != nil {
		fatal(err)
	}
	if _, err := mom.ParseMemModel(*cache); err != nil {
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
	if *samPar > 1 && *exp != "" {
		for _, e := range strings.Split(*exp, ",") {
			if e == "hotspots" || e == "all" {
				fmt.Fprintln(os.Stderr, "momsim: note: hotspot attribution needs ordered per-instruction events; hotspot runs serialize regardless of -sample-par")
				break
			}
		}
	}
	// The flags form one request; each catalogue experiment (and each
	// single -kernel/-app run) reads the fields it consumes from it.
	base := mom.JobRequest{
		Scale: *scale, Width: *width, ISA: *isaStr, Mem: *cache, Kernel: *kernel, App: *app,
		SamplePeriod: sp.Period, SampleWarmup: sp.Warmup, SampleInterval: sp.Interval,
		SamplePar: *samPar,
	}
	if *exp != "" {
		// Validate every requested experiment up front, so a typo in a
		// comma-separated list fails with the valid names instead of
		// after the earlier experiments have already run.
		for _, e := range strings.Split(*exp, ",") {
			if _, cli := cliOnly[e]; !cli && mom.ExpDescription(e) == "" {
				fatal(fmt.Errorf("unknown experiment %q; valid experiments:\n%s", e, expList()))
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
		if err := runExperiment(ctx, "kernel", base, i, outFormat); err != nil {
			fatal(err)
		}
	case *app != "":
		if err := runExperiment(ctx, "app", base, i, outFormat); err != nil {
			fatal(err)
		}
	case *exp != "":
		exps := strings.Split(*exp, ",")
		for _, e := range exps {
			if err := checkRequests(e, base); err != nil {
				fatal(err)
			}
		}
		for _, e := range exps {
			before := mom.TraceMetrics().Snapshot()
			if err := runExperiment(ctx, e, base, i, outFormat); err != nil {
				fatal(err)
			}
			if *verbose {
				// The trace layer's /metrics series (without the
				// momserved_ prefix), counters as this experiment's share.
				fmt.Printf("# %s %s\n", e, mom.TraceMetrics().Snapshot().Since(before))
			}
		}
	default:
		flag.Usage()
		runAtExit()
		os.Exit(2)
	}
}

// cliRequests are the catalogue requests momsim runs for one experiment:
// one, except for the resource ablations, which the CLI runs on two
// workloads each.
func cliRequests(exp string, base mom.JobRequest) []mom.JobRequest {
	base.Exp = exp
	workloads, ok := cliWorkloads[exp]
	if !ok {
		return []mom.JobRequest{base}
	}
	reqs := make([]mom.JobRequest, len(workloads))
	for i, w := range workloads {
		reqs[i] = base
		reqs[i].Kernel, reqs[i].App = w.Kernel, w.App
	}
	return reqs
}

// cliWorkloads are the workloads of `-exp regsweep` and `-exp memsweep`.
var cliWorkloads = map[string][]mom.JobRequest{
	"regsweep": {{Kernel: "idct"}, {Kernel: "motion1"}},
	"memsweep": {{App: "mpeg2decode"}, {App: "jpegdecode"}},
}

// runExperiment runs one -exp name: a CLI-only table or shorthand here, any
// other name through the catalogue (mom.RunExperiment), rendering its rows.
func runExperiment(ctx context.Context, exp string, base mom.JobRequest, i mom.ISA, format string) error {
	asJSON := format == "json"
	switch exp {
	case "list":
		fmt.Print(expList())
	case "table1":
		return render(exp, mom.Table1(i), format)
	case "table2":
		return render(exp, mom.Table2(), format)
	case "table3":
		return render(exp, mom.Table3(), format)
	case "isacount":
		mmx, mdmx, momN := mom.ISACounts()
		return render(exp, map[string]int{"mmx": mmx, "mdmx": mdmx, "mom": momN}, format)
	case "all":
		for _, e := range allExps {
			if err := runExperiment(ctx, e, base, i, format); err != nil {
				return err
			}
			if !asJSON {
				fmt.Println()
			}
		}
	default:
		// A multi-workload experiment prints each workload's text as it
		// finishes and one JSON document over all of them at the end.
		var all any
		for _, req := range cliRequests(exp, base) {
			rows, err := mom.RunExperiment(ctx, req)
			if err != nil {
				return err
			}
			if asJSON {
				all = appendRows(all, rows)
			} else if err := render(exp, rows, format); err != nil {
				return err
			}
		}
		if asJSON {
			return render(exp, all, format)
		}
	}
	return nil
}

// allExps is the order `-exp all` runs in.
var allExps = []string{"table1", "table2", "table3", "isacount", "fig5", "latency", "fig7", "fetch", "profile", "hotspots"}

// appendRows concatenates two row slices of one experiment (all may be nil).
func appendRows(all, rows any) any {
	if all == nil {
		return rows
	}
	return reflect.AppendSlice(reflect.ValueOf(all), reflect.ValueOf(rows)).Interface()
}

// render prints one experiment's rows (a single run's Result, a table, or
// a row slice) as JSON, as CSV where the row type has a CSV form, or as
// text.
func render(exp string, rows any, format string) error {
	w := os.Stdout
	csv := format == "csv"
	if format == "json" {
		if res, ok := rows.(mom.Result); ok {
			return mom.WriteResultJSON(w, res)
		}
		return mom.WriteExperimentJSON(w, exp, rows)
	}
	switch rows := rows.(type) {
	case mom.Result:
		printResult(rows)
	case []mom.Table1Row:
		fmt.Print(mom.FormatTable1(rows))
	case []mom.Table2Entry:
		fmt.Print(mom.FormatTable2(rows))
	case []mom.Table3Row:
		fmt.Print(mom.FormatTable3(rows))
	case map[string]int: // isacount
		fmt.Printf("multimedia instructions: MMX %d, MDMX %d, MOM %d\n", rows["mmx"], rows["mdmx"], rows["mom"])
	case []mom.KernelSpeedup:
		if csv {
			return mom.WriteFigure5CSV(w, rows)
		}
		fmt.Print(mom.FormatFigure5(rows))
	case []mom.LatencyRow:
		if csv {
			return mom.WriteLatencyCSV(w, rows)
		}
		fmt.Print(mom.FormatLatency(rows))
	case []mom.AppSpeedup:
		if csv {
			return mom.WriteFigure7CSV(w, rows)
		}
		fmt.Print(mom.FormatFigure7(rows))
	case []mom.ProfileRow:
		if csv {
			return mom.WriteProfileCSV(w, rows)
		}
		fmt.Print(mom.FormatProfile(rows))
	case []mom.FetchRow:
		fmt.Print(mom.FormatFetch(rows))
	case []mom.HotspotReport:
		if csv {
			return mom.WriteHotspotsCSV(w, rows)
		}
		fmt.Print(mom.FormatHotspots(rows))
	case []mom.RegSweepRow:
		fmt.Printf("physical matrix registers vs performance — %s (4-way MOM)\n", rows[0].Kernel)
		for _, r := range rows {
			fmt.Printf("  %2d regs: %9d cycles (%.3fx of 32-reg file)\n",
				r.MomPhys, r.Cycles, r.Slowdown)
		}
		fmt.Println()
	case []mom.MemSweepRow:
		fmt.Printf("memory-system ablation — %s (4-way MOM, multi-address)\n", rows[0].App)
		for _, r := range rows {
			fmt.Printf("  %d MSHRs, %d banks: %9d cycles (%.3fx of baseline)\n",
				r.MSHRs, r.Banks, r.Cycles, r.Slowdown)
		}
		fmt.Println()
	default:
		return fmt.Errorf("experiment %q: no text form for %T", exp, rows)
	}
	return nil
}

// printResult reports one timed run as a human-readable summary (the
// catalogue has already checked it against the accounting invariants).
func printResult(r mom.Result) {
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
	// Classes with equal counts print in name order, so the line is the
	// same on every run.
	sort.Strings(classes)
	sort.SliceStable(classes, func(i, j int) bool { return r.OpMix[classes[i]] > r.OpMix[classes[j]] })
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

// cliOnly describes the -exp names momsim serves itself (the static tables
// and the CLI shorthands); every other name is a catalogue experiment,
// described by mom.ExpDescription.
var cliOnly = map[string]string{
	"table1":   "processor configurations of the four modelled machines (Table 1)",
	"table2":   "multimedia register-file sizes and area estimates (Table 2)",
	"table3":   "port counts of the modelled memory systems (Table 3)",
	"isacount": "multimedia instruction counts per ISA extension",
	"all":      "every table and experiment above, in order",
	"list":     "print this list",
}

// listOrder is the order `-exp list` describes the -exp names in.
var listOrder = []string{
	"fig5", "latency", "fig7", "table1", "table2", "table3",
	"fetch", "profile", "hotspots", "regsweep", "memsweep", "isacount", "all", "list",
}

// expList renders every -exp name with its one-line description.
func expList() string {
	var b strings.Builder
	for _, e := range listOrder {
		d := mom.ExpDescription(e)
		if d == "" {
			d = cliOnly[e]
		}
		fmt.Fprintf(&b, "  %-9s %s\n", e, d)
	}
	b.WriteString("single machine points (the \"kernel\"/\"app\" batch experiments) run via -kernel/-app instead\n")
	return b.String()
}

// checkRequests normalises every request one -exp name will run, before
// the first experiment starts, so a flag a later experiment rejects fails
// at once. The CLI-only names take no sampling regime.
func checkRequests(e string, base mom.JobRequest) error {
	_, cli := cliOnly[e]
	switch {
	case cli && base.SampleInterval != 0:
		return fmt.Errorf("experiment %q is exact-only: -sample is not supported", e)
	case e == "all":
		for _, sub := range allExps {
			if err := checkRequests(sub, base); err != nil {
				return err
			}
		}
	case !cli:
		for _, req := range cliRequests(e, base) {
			if _, err := req.Normalized(); err != nil {
				return err
			}
		}
	}
	return nil
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
