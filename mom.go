// Package mom is a full reproduction of "Exploiting a New Level of DLP in
// Multimedia Applications" (Corbal, Espasa, Valero — MICRO-32, 1999): the
// MOM matrix-oriented multimedia ISA, its MMX/MDMX/Alpha comparison
// baselines, an R10000-like out-of-order cycle-level simulator, the
// perfect-memory and detailed (multi-address / vector-cache / collapsing
// buffer) memory systems, the paper's eight kernels and five Mediabench
// applications, and drivers regenerating every table and figure of the
// evaluation.
//
// The public surface is intentionally small:
//
//   - RunKernel / RunApp time one workload on one machine.
//   - Figure5, LatencyStudy, Table1, Table2, Table3, Figure7 regenerate the
//     paper's artifacts.
//   - BuildKernel exposes the generated programs for inspection.
//   - KernelHotspots / AppHotspots / HotspotStudy attribute a run's cycles
//     to single static instructions, and ExportKernelPipeline /
//     ExportAppPipeline cut per-instruction pipeline traces (Konata /
//     Perfetto formats) from the same event stream.
package mom

import (
	"encoding/json"
	"fmt"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
)

// ISA selects the instruction-set level of a program and machine.
type ISA int

// The four ISA levels of the paper.
const (
	Alpha ISA = iota
	MMX
	MDMX
	MOM
)

// AllISAs lists the ISA levels in the paper's order.
var AllISAs = []ISA{Alpha, MMX, MDMX, MOM}

func (i ISA) String() string { return i.ext().String() }

// MarshalJSON encodes the ISA by name so the JSON schema is stable even if
// the enum values are ever reordered.
func (i ISA) MarshalJSON() ([]byte, error) { return json.Marshal(i.String()) }

func (i ISA) ext() isa.Ext {
	switch i {
	case Alpha:
		return isa.ExtAlpha
	case MMX:
		return isa.ExtMMX
	case MDMX:
		return isa.ExtMDMX
	case MOM:
		return isa.ExtMOM
	}
	panic(fmt.Sprintf("mom: bad ISA %d", int(i)))
}

// Scale selects workload sizes.
type Scale int

// Workload scales: Test keeps functional runs fast; Bench matches the
// experiment sizes used for the figures.
const (
	ScaleTest  Scale = Scale(kernels.ScaleTest)
	ScaleBench Scale = Scale(kernels.ScaleBench)
)

// CacheMode selects the memory organisation of the detailed hierarchy.
type CacheMode int

// The cache organisations of Figure 6 / Table 3.
const (
	Conventional CacheMode = iota
	MultiAddress
	VectorCache
	CollapsingBuffer
)

func (c CacheMode) String() string { return c.mode().String() }

// MarshalJSON encodes the cache mode by name, like ISA.
func (c CacheMode) MarshalJSON() ([]byte, error) { return json.Marshal(c.String()) }

func (c CacheMode) mode() mem.VectorMode {
	switch c {
	case Conventional:
		return mem.ModeConventional
	case MultiAddress:
		return mem.ModeMultiAddress
	case VectorCache:
		return mem.ModeVectorCache
	case CollapsingBuffer:
		return mem.ModeCollapsing
	}
	panic(fmt.Sprintf("mom: bad cache mode %d", int(c)))
}

// MemModel abstracts the memory system passed to a run.
type MemModel struct {
	build    func(width int) mem.Model
	name     string
	detailed bool // the Table 3 hierarchy, built at 4- and 8-way only
}

// Name identifies the model.
func (m MemModel) Name() string { return m.name }

// PerfectMemory returns the idealised fixed-latency memory of the kernel
// study (latency 1 = perfect cache; 50 = the latency-tolerance experiment).
func PerfectMemory(latency int) MemModel {
	return MemModel{
		build: func(int) mem.Model { return mem.NewPerfect(latency) },
		name:  fmt.Sprintf("perfect(%d)", latency),
	}
}

// DetailedMemory returns the two-level hierarchy with the chosen vector
// cache organisation; the width-dependent port counts follow Table 3.
func DetailedMemory(mode CacheMode) MemModel {
	return MemModel{
		build: func(width int) mem.Model {
			return mem.NewHierarchy(mem.HierConfig{Width: width, Mode: mode.mode()})
		},
		name:     mode.String(),
		detailed: true,
	}
}

// MemStats is the memory-system statistics of a run. The counters obey
// the invariants documented on mem.Stats (and enforced by
// Result.CheckInvariants): L1Hits+L1Misses == L1Lookups across loads AND
// stores, likewise for L2.
type MemStats = mem.Stats

// Result reports one timed run.
type Result struct {
	Workload    string `json:"workload"`
	ISA         ISA    `json:"isa"`
	Width       int    `json:"width"`
	MemName     string `json:"mem"`
	Cycles      int64  `json:"cycles"`
	Insts       uint64 `json:"insts"`
	WordOps     uint64 `json:"word_ops"`
	Branches    uint64 `json:"branches"`
	Mispredicts uint64 `json:"mispredicts"`
	Loads       uint64 `json:"loads"`
	Stores      uint64 `json:"stores"`
	// OpMix counts graduated instructions per operation class
	// (e.g. "int", "vload", "vmed*").
	OpMix   map[string]uint64 `json:"op_mix"`
	Mem     MemStats          `json:"mem_stats"`
	Profile Profile           `json:"profile"`
	// Sampled is non-nil only for sampled runs (RunKernelSampled /
	// RunAppSampled and the sampled experiment drivers). Cycles, Insts and
	// Profile then cover the measured intervals only — the attribution
	// identity Profile.Total() == Cycles still holds and IPC() is the
	// sampled estimate — while Sampled carries coverage and error bounds.
	Sampled *SampledInfo `json:"sampled,omitempty"`
}

// IPC returns graduated instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// OPC returns packed-word operations per cycle (fetch-pressure metric).
func (r Result) OPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.WordOps) / float64(r.Cycles)
}

func fromCPU(name string, i ISA, width int, memName string, c cpu.Result) Result {
	mix := map[string]uint64{}
	for cl, n := range c.ByClass {
		if n > 0 {
			mix[isa.Class(cl).String()] = n
		}
	}
	return Result{
		Workload: name, ISA: i, Width: width, MemName: memName,
		Cycles: c.Cycles, Insts: c.Insts, WordOps: c.WordOps,
		Branches: c.Branches, Mispredicts: c.Mispredicts,
		Loads: c.Loads, Stores: c.Stores, OpMix: mix,
		Mem: c.Mem, Profile: c.Profile,
		Sampled: sampledInfo(c.Sampled, c.Cycles, c.Insts),
	}
}

// KernelNames lists the eight kernels of the paper's kernel-level study.
func KernelNames() []string {
	var out []string
	for _, k := range kernels.All(kernels.ScaleTest) {
		out = append(out, k.Name)
	}
	return out
}

// maxDynInsts is the safety cap on dynamic instructions per run.
const maxDynInsts = 400_000_000

// RunKernel times one kernel on one machine configuration, replaying the
// kernel's trace from the process trace cache (captured on first use).
func RunKernel(kernel string, i ISA, width int, m MemModel, sc Scale) (Result, error) {
	return runWorkload(traceKey{name: kernel, isa: i, scale: sc}, width, m, SampleSpec{}, nil)
}

// VerifyKernel runs a kernel functionally and checks bit-exactness against
// the golden implementation.
func VerifyKernel(kernel string, i ISA, sc Scale) error {
	k, err := kernels.ByName(kernel, kernels.Scale(sc))
	if err != nil {
		return err
	}
	return kernels.RunAndVerify(k, i.ext(), maxDynInsts)
}

// AppNames lists the five applications of the program-level study.
func AppNames() []string { return apps.Names() }

// RunApp times one full application on one machine configuration, like
// RunKernel.
func RunApp(app string, i ISA, width int, m MemModel, sc Scale) (Result, error) {
	return runWorkload(traceKey{app: true, name: app, isa: i, scale: sc}, width, m, SampleSpec{}, nil)
}

// VerifyApp runs an application functionally and checks its outputs.
func VerifyApp(app string, i ISA, sc Scale) error {
	a, err := apps.ByName(app, apps.Scale(sc))
	if err != nil {
		return err
	}
	return apps.RunAndVerify(a, i.ext(), maxDynInsts)
}

// BuildKernel returns the generated program for inspection (disassembly,
// static statistics).
func BuildKernel(kernel string, i ISA, sc Scale) (*isa.Program, error) {
	k, err := kernels.ByName(kernel, kernels.Scale(sc))
	if err != nil {
		return nil, err
	}
	return k.Build(i.ext()), nil
}

// BuildApp returns the generated application program for inspection.
func BuildApp(app string, i ISA, sc Scale) (*isa.Program, error) {
	a, err := apps.ByName(app, apps.Scale(sc))
	if err != nil {
		return nil, err
	}
	return a.Build(i.ext()), nil
}
