// Command perfbench is the repository's benchmark: it runs one workload at
// bench scale, checks every simulated result against the committed golden,
// and prints the workload's metrics. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}. With
// -trace 0 the metrics are the end-to-end ones, measured with tracing off;
// with -trace 1 a separate traced run records a span around every call the
// benchmark makes, writes the spans as Chrome trace-event JSON, and reports
// the per-layer metrics. DESIGN.md in this directory defines every metric,
// its estimator and the layers each should move.
//
// Run it from the repository root through the launcher, which builds this
// module first:
//
//	bash perfbench/run.sh --workload figures-exact --seed 1 --seconds 45 --trace 0
//	bash perfbench/run.sh -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's last output line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark process.
type bench struct {
	workload string
	seed     int64
	rng      *rand.Rand
	seconds  time.Duration
	rec      *recorder // nil in untraced runs
	gold     golden
	work     string // scratch directory inside the checkout, removed at exit

	mu        sync.Mutex
	attempted int64
	failed    int64
	errs      []string

	hostRef []time.Duration
	metrics map[string]metric
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (b *bench) op(err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		if len(b.errs) < 20 {
			b.errs = append(b.errs, err.Error())
		}
	}
}

func (b *bench) set(name string, v float64, unit string) {
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// logf prints a human-readable report line.
func (b *bench) logf(format string, args ...any) {
	fmt.Printf("# "+format+"\n", args...)
}

// runHostRef runs the host reference loop once and keeps its time.
func (b *bench) runHostRef() {
	b.hostRef = append(b.hostRef, hostRef())
}

type workload struct {
	name string
	// setup acquires every trace the workload replays, cold, and returns
	// its state for measure and layers.
	setup func(b *bench, parent int) (any, error)
	// measure runs the timed repeats with tracing off and sets the
	// end-to-end metrics.
	measure func(b *bench, st any, deadline time.Time) error
	// layers runs the traced run's layer calls and sets the per-layer
	// metrics.
	layers func(b *bench, st any, deadline time.Time) error
}

var workloads = []workload{figuresExact, fig7Sampled, service}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// goldenPath is the golden results file, relative to the repository root.
const goldenPath = "perfbench/golden.json"

// setupRuns is how many times an untraced run sets up: once in process,
// and the rest in child processes that start from an empty trace cache
// too. setup_s is the median of their CPU times.
const setupRuns = 5

func main() {
	var (
		name       = flag.String("workload", "", "workload: figures-exact, fig7-sampled or service")
		seed       = flag.Int64("seed", 1, "seed for unit order and job schedules")
		seconds    = flag.Int("seconds", 30, "measurement time in seconds")
		traced     = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		update     = flag.Bool("update-golden", false, "regenerate the golden file and list the units that moved")
		workDir    = flag.String("work", ".bench_build/perfbench-work", "directory for scratch stores and span files")
		setupChild = flag.Bool("setup-child", false, "set up the workload once, print its time and exit")
	)
	flag.Parse()
	if *update {
		os.Exit(updateGolden(goldenPath))
	}
	w, ok := findWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (valid: %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		os.Exit(2)
	}
	b := &bench{
		workload: w.name, seed: *seed, rng: rand.New(rand.NewSource(*seed)),
		seconds: time.Duration(*seconds) * time.Second, metrics: map[string]metric{},
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	work, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fatal(err)
	}
	b.work = work
	code := b.run(w, *traced == 1, *setupChild, *workDir)
	os.RemoveAll(work)
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func (b *bench) run(w workload, traced, setupChild bool, workDir string) int {
	if setupChild {
		t0, c0 := time.Now(), cpuTime()
		if _, err := w.setup(b, 0); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Println(time.Since(t0).Seconds(), (cpuTime() - c0).Seconds())
		return 0
	}
	g, err := loadGolden(goldenPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	b.gold = g
	if traced {
		b.rec = newRecorder()
	}
	t0, c0 := time.Now(), cpuTime()
	var st any
	b.rec.timed("setup", 0, func(id int) { st, err = w.setup(b, id) })
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: setup:", err)
		return 1
	}
	setupWall, setupCPU := time.Since(t0).Seconds(), (cpuTime() - c0).Seconds()
	deadline := time.Now().Add(b.seconds)
	if traced {
		err = w.layers(b, st, deadline)
	} else {
		err = w.measure(b, st, deadline)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !traced {
		walls, cpus := []float64{setupWall}, []float64{setupCPU}
		for i := 1; i < setupRuns; i++ {
			wall, cpu, err := childSetup(w.name, workDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: setup child:", err)
				return 1
			}
			walls, cpus = append(walls, wall), append(cpus, cpu)
		}
		b.logf("setup_s: median CPU time of %d set-ups %s s; their wall times %s s",
			len(cpus), fmtList(cpus, "%.3f"), fmtList(walls, "%.3f"))
		b.set("setup_s", median(cpus), "s")
	} else {
		path := filepath.Join(workDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, b.seed))
		spans := b.rec.snapshot()
		if err := writeChrome(path, spans); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
			return 1
		}
		b.logf("spans: %d written to %s", len(spans), path)
		b.printSelfTimes(spans)
	}
	b.printHostRef()
	return b.finish()
}

// finish prints the metrics and the result line.
func (b *bench) finish() int {
	names := make([]string, 0, len(b.metrics))
	for n := range b.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := b.metrics[n]
		b.logf("%-32s %14.6g %s", n, m.Value, m.Unit)
	}
	for _, e := range b.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", e)
	}
	if b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation attempted")
		return 1
	}
	out, err := json.Marshal(report{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
	return 0
}

// printHostRef reports the reference loop: a slow fastest-of says the host
// ran slow, not the program.
func (b *bench) printHostRef() {
	var xs []float64
	for _, d := range b.hostRef {
		xs = append(xs, ms(d))
	}
	if len(xs) == 0 {
		return
	}
	best := xs[0]
	for _, x := range xs {
		best = min(best, x)
	}
	b.logf("host.ref_ms: fastest %.4f, median %.4f over %d runs (diagnostic, not a metric)", best, median(xs), len(xs))
}

// printSelfTimes lists the span names with the most self time: each span's
// duration less the part its child spans cover, summed by name.
func (b *bench) printSelfTimes(spans []span) {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	b.logf("span self time, top %d of %d names:", min(15, len(names)), len(names))
	for _, n := range names[:min(15, len(names))] {
		b.logf("  %-40s %10.3f ms", n, ms(self[n]))
	}
}

// childSetup runs the workload's set-up in a fresh process, which starts
// from an empty trace cache like the first one, and returns its wall and
// CPU time in seconds.
func childSetup(name, workDir string) (wall, cpu float64, err error) {
	self, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	cmd := exec.Command(self, "-setup-child", "-workload", name, "-work", workDir)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, 0, err
	}
	f := strings.Fields(string(out))
	if len(f) != 2 {
		return 0, 0, fmt.Errorf("set-up child printed %q, want wall and CPU seconds", out)
	}
	if wall, err = strconv.ParseFloat(f[0], 64); err == nil {
		cpu, err = strconv.ParseFloat(f[1], 64)
	}
	return wall, cpu, err
}

// setPeakRSS sets peak_rss_mb. Each workload's measure calls it once its
// timed work is done.
func (b *bench) setPeakRSS() error {
	rss, err := peakRSSMB()
	if err != nil {
		return fmt.Errorf("peak RSS: %w", err)
	}
	b.set("peak_rss_mb", rss, "MB")
	return nil
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func fmtList(xs []float64, f string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(f, x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
