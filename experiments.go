package mom

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/regfile"
)

// This file contains the drivers that regenerate every table and figure of
// the paper's evaluation (the experiment index lives in DESIGN.md). Every
// driver follows the capture-once / replay-many pattern: the dynamic trace
// of each workload×ISA is recorded once (see tracecache.go) and replayed
// across all machine configurations in parallel.

// Widths are the issue widths of the kernel study (Table 1 columns).
var Widths = []int{1, 2, 4, 8}

// kernelGrid is the one runner of the kernel-study experiments: it acquires
// every kernel's trace on every ISA, then runs cell on the worker pool for
// each kernel × ISA pair and each of the pair's n variants (widths, memory
// models, ...), and returns the rows in kernel, ISA, variant order.
func kernelGrid[T any](ctx context.Context, sc Scale, n int, cell func(key traceKey, v int) (T, error)) ([]T, error) {
	names := KernelNames()
	if err := warmTraces(ctx, false, names, AllISAs, sc); err != nil {
		return nil, err
	}
	perKernel := len(AllISAs) * n
	rows := make([]T, len(names)*perKernel)
	err := par.For(ctx, len(rows), func(idx int) error {
		key := traceKey{name: names[idx/perKernel], isa: AllISAs[idx%perKernel/n], scale: sc}
		row, err := cell(key, idx%n)
		rows[idx] = row
		return err
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// KernelSpeedup is one bar of Figure 5.
type KernelSpeedup struct {
	Kernel  string  `json:"kernel"`
	ISA     ISA     `json:"isa"`
	Width   int     `json:"width"`
	Cycles  int64   `json:"cycles"`
	Insts   uint64  `json:"insts"`
	IPC     float64 `json:"ipc"`
	Speedup float64 `json:"speedup"` // versus the 1-way Alpha run of the same kernel
}

// Figure5 reruns the kernel-level study: every kernel on every ISA at every
// issue width, with the idealised 1-cycle memory, reporting speed-ups
// relative to the 1-way Alpha machine.
func Figure5(ctx context.Context, sc Scale) ([]KernelSpeedup, error) {
	rows, err := kernelGrid(ctx, sc, len(Widths), func(key traceKey, v int) (KernelSpeedup, error) {
		res, err := runWorkload(key, Widths[v], PerfectMemory(1), SampleSpec{}, nil)
		if err != nil {
			return KernelSpeedup{}, err
		}
		return KernelSpeedup{
			Kernel: key.name, ISA: key.isa, Width: Widths[v],
			Cycles: res.Cycles, Insts: res.Insts, IPC: res.IPC(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	// Baselines: 1-way Alpha per kernel.
	base := map[string]int64{}
	for _, r := range rows {
		if r.ISA == Alpha && r.Width == 1 {
			base[r.Kernel] = r.Cycles
		}
	}
	for i := range rows {
		if b := base[rows[i].Kernel]; b > 0 && rows[i].Cycles > 0 {
			rows[i].Speedup = float64(b) / float64(rows[i].Cycles)
		}
	}
	return rows, nil
}

// LatencyRow is one entry of the Section 4.1 latency-tolerance study.
type LatencyRow struct {
	Kernel   string  `json:"kernel"`
	ISA      ISA     `json:"isa"`
	Width    int     `json:"width"`
	Cycles1  int64   `json:"cycles_lat1"`
	Cycles50 int64   `json:"cycles_lat50"`
	Slowdown float64 `json:"slowdown"`
}

// LatencyStudy reruns the kernels with the memory latency raised from 1 to
// 50 cycles (the streaming-reference experiment); the paper reports
// slow-downs of 3-9x for Alpha, 4-8x for MMX/MDMX and only 2-4x for MOM.
func LatencyStudy(ctx context.Context, sc Scale, width int) ([]LatencyRow, error) {
	return kernelGrid(ctx, sc, 1, func(key traceKey, _ int) (LatencyRow, error) {
		r1, err := runWorkload(key, width, PerfectMemory(1), SampleSpec{}, nil)
		if err != nil {
			return LatencyRow{}, err
		}
		r50, err := runWorkload(key, width, PerfectMemory(50), SampleSpec{}, nil)
		if err != nil {
			return LatencyRow{}, err
		}
		return LatencyRow{
			Kernel: key.name, ISA: key.isa, Width: width,
			Cycles1: r1.Cycles, Cycles50: r50.Cycles,
			Slowdown: float64(r50.Cycles) / float64(r1.Cycles),
		}, nil
	})
}

// AppConfig is one machine configuration of the program-level study
// (Figure 7): an ISA plus a cache organisation.
type AppConfig struct {
	ISA   ISA       `json:"isa"`
	Cache CacheMode `json:"cache"`
}

func (c AppConfig) String() string {
	return fmt.Sprintf("%s/%s", c.ISA, c.Cache)
}

// Figure7Configs are the five configurations of Figure 7.
var Figure7Configs = []AppConfig{
	{Alpha, Conventional},
	{MMX, Conventional},
	{MOM, MultiAddress},
	{MOM, VectorCache},
	{MOM, CollapsingBuffer},
}

// AppSpeedup is one bar of Figure 7. For sampled runs Cycles is the
// whole-run estimate at the sampled IPC (so speed-up ratios stay
// comparable) and Sampled carries coverage and error bounds.
type AppSpeedup struct {
	App     string       `json:"app"`
	Config  AppConfig    `json:"config"`
	Width   int          `json:"width"`
	Cycles  int64        `json:"cycles"`
	Insts   uint64       `json:"insts"`
	IPC     float64      `json:"ipc"`
	Speedup float64      `json:"speedup"` // versus Alpha/conventional at the same width
	Sampled *SampledInfo `json:"sampled,omitempty"`
}

// Figure7 reruns the program-level study: the five applications on the five
// ISA/cache configurations at 4- and 8-way issue with the detailed memory
// hierarchy. A zero spec runs every point exact; an enabled one runs every
// app×config×width point sampled (detailed windows + functional
// fast-forward over the recorded trace), turning the slowest experiment
// into an interactive one.
func Figure7(ctx context.Context, sc Scale, sp SampleSpec) ([]AppSpeedup, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	names := AppNames()
	var isas []ISA // the ISAs of Figure7Configs, whose traces the study replays
	for _, cfg := range Figure7Configs {
		if !slices.Contains(isas, cfg.ISA) {
			isas = append(isas, cfg.ISA)
		}
	}
	if err := warmTraces(ctx, true, names, isas, sc); err != nil {
		return nil, err
	}
	widths := []int{4, 8}
	perApp := len(Figure7Configs) * len(widths)
	rows := make([]AppSpeedup, len(names)*perApp)
	err := par.For(ctx, len(rows), func(idx int) error {
		app, cfg, w := names[idx/perApp], Figure7Configs[idx%perApp/len(widths)], widths[idx%len(widths)]
		res, err := runWorkload(traceKey{app: true, name: app, isa: cfg.ISA, scale: sc}, w, DetailedMemory(cfg.Cache), sp, nil)
		if err != nil {
			return err
		}
		insts := res.Insts
		if res.Sampled != nil {
			insts = res.Sampled.TotalInsts
		}
		rows[idx] = AppSpeedup{
			App: app, Config: cfg, Width: w,
			Cycles: estOrExactCycles(res), Insts: insts, IPC: res.IPC(),
			Sampled: res.Sampled,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	base := map[string]int64{}
	for _, r := range rows {
		if r.Config.ISA == Alpha {
			base[fmt.Sprintf("%s/%d", r.App, r.Width)] = r.Cycles
		}
	}
	for i := range rows {
		if b := base[fmt.Sprintf("%s/%d", rows[i].App, rows[i].Width)]; b > 0 && rows[i].Cycles > 0 {
			rows[i].Speedup = float64(b) / float64(rows[i].Cycles)
		}
	}
	return rows, nil
}

// ProfileRow is one kernel×ISA×memory cycle-attribution breakdown of the
// profiling study.
type ProfileRow struct {
	Kernel  string       `json:"kernel"`
	ISA     ISA          `json:"isa"`
	Width   int          `json:"width"`
	MemName string       `json:"mem"`
	Cycles  int64        `json:"cycles"`
	IPC     float64      `json:"ipc"`
	Profile Profile      `json:"profile"`
	Mem     MemStats     `json:"mem_stats"`
	Sampled *SampledInfo `json:"sampled,omitempty"`
}

// ProfileStudy is the cycle-attribution companion to the Section 4.1
// latency argument: every kernel on every ISA, at the given width, under
// the 1-cycle and the 50-cycle idealised memories. Comparing each ISA's
// MemWait share across the two memories shows *why* MOM tolerates latency —
// overlapped vector memory access keeps the stall share low where the
// scalar and packed ISAs serialise on loads. Every row is checked against
// the attribution identity (buckets sum to Cycles) and the memory counter
// invariants before being returned, so a broken counter fails the study
// rather than skewing it. Under an enabled spec the rows' profiles cover
// the measured intervals only, and every invariant is still checked.
func ProfileStudy(ctx context.Context, sc Scale, width int, sp SampleSpec) ([]ProfileRow, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	mems := []MemModel{PerfectMemory(1), PerfectMemory(50)}
	return kernelGrid(ctx, sc, len(mems), func(key traceKey, v int) (ProfileRow, error) {
		res, err := runWorkload(key, width, mems[v], sp, nil)
		if err != nil {
			return ProfileRow{}, err
		}
		if err := res.CheckInvariants(); err != nil {
			return ProfileRow{}, err
		}
		return ProfileRow{
			Kernel: key.name, ISA: key.isa, Width: width, MemName: mems[v].Name(),
			Cycles: res.Cycles, IPC: res.IPC(), Profile: res.Profile, Mem: res.Mem,
			Sampled: res.Sampled,
		}, nil
	})
}

// FetchRow is one entry of the fetch-pressure comparison (word-operations
// packed per dynamic instruction).
type FetchRow struct {
	Kernel     string  `json:"kernel"`
	ISA        ISA     `json:"isa"`
	Insts      uint64  `json:"insts"`
	WordOps    uint64  `json:"word_ops"`
	OpsPerInst float64 `json:"ops_per_inst"`
}

// FetchPressure reports dynamic instruction counts and word-operations per
// instruction for every kernel and ISA — the paper's "MOM packs an order of
// magnitude more operations per instruction" argument.
func FetchPressure(ctx context.Context, sc Scale) ([]FetchRow, error) {
	return kernelGrid(ctx, sc, 1, func(key traceKey, _ int) (FetchRow, error) {
		res, err := runWorkload(key, 4, PerfectMemory(1), SampleSpec{}, nil)
		if err != nil {
			return FetchRow{}, err
		}
		return FetchRow{
			Kernel: key.name, ISA: key.isa, Insts: res.Insts, WordOps: res.WordOps,
			OpsPerInst: float64(res.WordOps) / float64(res.Insts),
		}, nil
	})
}

// Table1Row describes one processor configuration column.
type Table1Row struct {
	Name   string            `json:"name"`
	Values map[string]string `json:"values"`
}

// Table1 reproduces the processor-configuration table for a given ISA.
func Table1(i ISA) []Table1Row {
	var rows []Table1Row
	for _, w := range Widths {
		c := cpu.NewConfig(w, i.ext())
		rows = append(rows, Table1Row{
			Name: c.Name,
			Values: map[string]string{
				"ROB size":           fmt.Sprint(c.ROBSize),
				"Load/Store queue":   fmt.Sprint(c.LSQSize),
				"Bimodal predictor":  fmt.Sprint(c.BimodalSize),
				"BTB entries":        fmt.Sprint(c.BTBEntries),
				"INT simple/complex": fmt.Sprintf("%d/%d", c.IntSimple, c.IntComplex),
				"FP simple/complex":  fmt.Sprintf("%d/%d", c.FPSimple, c.FPComplex),
				"MED simple/complex": fmt.Sprintf("%d/%d (x%d)", c.MedSimple, c.MedComplex, c.MedLanes),
				"memory ports":       fmt.Sprintf("%d (x%d)", c.MemPorts, c.MemPortLanes),
				"INT log/ph":         fmt.Sprintf("%d/%d", isa.NumInt, c.IntPhys),
				"FP log/ph":          fmt.Sprintf("%d/%d", isa.NumFP, c.FPPhys),
			},
		})
	}
	return rows
}

// Table2Entry is one row of the register-file comparison.
type Table2Entry = regfile.Table2Entry

// Table2 reproduces the multimedia register-file comparison (4-way machine).
func Table2() []Table2Entry { return regfile.Table2() }

// Table3Row describes one memory-model column (port configuration).
type Table3Row struct {
	Model  string            `json:"model"`
	Width  int               `json:"width"`
	Values map[string]string `json:"values"`
}

// Table3 reproduces the port configuration of the memory models.
func Table3() []Table3Row {
	var rows []Table3Row
	for _, mode := range []CacheMode{Conventional, MultiAddress, VectorCache, CollapsingBuffer} {
		for _, w := range []int{4, 8} {
			v := map[string]string{}
			switch mode {
			case Conventional, MultiAddress:
				if w == 4 {
					v["L1 #ports"], v["L1 #banks"], v["L1 latency"] = "2", "4", "1 cyc"
				} else {
					v["L1 #ports"], v["L1 #banks"], v["L1 latency"] = "4", "8", "2 cyc"
				}
				v["L2 latency"] = "6 cyc"
			default:
				if w == 4 {
					v["L1 #ports"], v["L1 #banks"], v["L1 latency"] = "1", "1", "1 cyc"
					v["L2 #ports"] = "1x2"
				} else {
					v["L1 #ports"], v["L1 #banks"], v["L1 latency"] = "2", "2", "1 cyc"
					v["L2 #ports"] = "1x4"
				}
				if mode == VectorCache {
					v["L2 latency"] = "8 cyc"
				} else {
					v["L2 latency"] = "10 cyc"
				}
			}
			rows = append(rows, Table3Row{Model: mode.String(), Width: w, Values: v})
		}
	}
	return rows
}

// ISACounts reports the number of multimedia instructions available to each
// extension (the paper: MMX 67, MDMX 88, MOM 121).
func ISACounts() (mmx, mdmx, mom int) {
	return isa.CountByExtension()
}

// RegSweepRow is one point of the physical-register sensitivity ablation
// (the "preliminary simulations" behind Table 2's file sizes).
type RegSweepRow struct {
	Kernel   string  `json:"kernel"`
	MomPhys  int     `json:"mom_phys"`
	Cycles   int64   `json:"cycles"`
	Slowdown float64 `json:"slowdown"` // versus the largest file swept
}

// variantCycles is the shared core of the resource ablations
// (RegisterSweep, MemorySweep): run one traced workload across n machine
// variants on a bounded pool and report each variant's cycle count. The
// trace is acquired once and replayed for every variant — it is width-
// and resource-independent; build returns variant i's processor and
// memory configuration.
func variantCycles(ctx context.Context, key traceKey, n int, build func(i int) (cpu.Config, mem.Model)) ([]int64, error) {
	cycles := make([]int64, n)
	err := par.For(ctx, n, func(i int) error {
		cfg, model := build(i)
		res, err := replayTrace(key, cfg, model, SampleSpec{}, nil)
		if err != nil {
			return err
		}
		cycles[i] = res.Cycles
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cycles, nil
}

// RegisterSweep varies the number of physical matrix registers on the
// 4-way MOM machine and reports the cycle cost, showing performance
// saturating around the paper's choice of 20.
func RegisterSweep(ctx context.Context, sc Scale, kernel string) ([]RegSweepRow, error) {
	sizes := []int{17, 18, 20, 24, 32}
	cycles, err := variantCycles(ctx, traceKey{name: kernel, isa: MOM, scale: sc}, len(sizes),
		func(i int) (cpu.Config, mem.Model) {
			cfg := cpu.NewConfig(4, isa.ExtMOM)
			cfg.MomPhys = sizes[i]
			return cfg, mem.NewPerfect(1)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]RegSweepRow, len(sizes))
	base := cycles[len(cycles)-1]
	for i := range rows {
		rows[i] = RegSweepRow{Kernel: kernel, MomPhys: sizes[i], Cycles: cycles[i],
			Slowdown: float64(cycles[i]) / float64(base)}
	}
	return rows, nil
}

// MemSweepRow is one point of the memory-system ablation: shrinking the
// MSHR pool or the L1 banking shows which resources the streaming MOM
// accesses actually need.
type MemSweepRow struct {
	App      string  `json:"app"`
	MSHRs    int     `json:"mshrs"`
	Banks    int     `json:"banks"`
	Cycles   int64   `json:"cycles"`
	Slowdown float64 `json:"slowdown"` // versus the Table 3 configuration
}

// MemorySweep runs an application on the 4-way MOM multi-address machine
// with reduced MSHR counts and bank counts.
func MemorySweep(ctx context.Context, sc Scale, app string) ([]MemSweepRow, error) {
	type variant struct{ mshrs, banks int }
	variants := []variant{
		{8, 4}, // Table 3 baseline
		{4, 4},
		{2, 4},
		{1, 4},
		{8, 2},
		{8, 1},
	}
	cycles, err := variantCycles(ctx, traceKey{app: true, name: app, isa: MOM, scale: sc}, len(variants),
		func(i int) (cpu.Config, mem.Model) {
			return cpu.NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{
				Width: 4, Mode: mem.ModeMultiAddress, MSHRs: variants[i].mshrs, L1Banks: variants[i].banks,
			})
		})
	if err != nil {
		return nil, err
	}
	rows := make([]MemSweepRow, len(variants))
	base := cycles[0]
	for i := range rows {
		rows[i] = MemSweepRow{App: app, MSHRs: variants[i].mshrs, Banks: variants[i].banks,
			Cycles: cycles[i], Slowdown: float64(cycles[i]) / float64(base)}
	}
	return rows, nil
}
