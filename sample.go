package mom

import (
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"

	"repro/internal/cpu"
)

// SampleSpec is the public sampled-simulation configuration (see
// cpu.SampleSpec): out of every Period dynamic instructions, Warmup are
// detailed-simulated and discarded, Interval are detailed-simulated and
// measured, and the rest fast-forward through functional warming. The zero
// value disables sampling — every driver treats a disabled spec as the
// exact path, bit-identically.
type SampleSpec struct {
	Period   uint64 `json:"period"`
	Warmup   uint64 `json:"warmup"`
	Interval uint64 `json:"interval"`

	// Parallelism is the worker count for the checkpoint-based parallel
	// interval path (cpu.SampleSpec.Parallelism). 0 — the default — means
	// "use every host core" (runtime.GOMAXPROCS); 1 forces the serial loop.
	// Hotspot runs are serial at any value. The knob is a pure speed
	// lever: results are bit-identical at any value, so it is excluded from
	// JSON envelopes and content-address keys (see JobRequest).
	Parallelism int `json:"-"`
}

// DefaultSampleSpec is the recommended sampling regime: ~10% of the stream
// measured in many short windows (a 150-instruction interval per 1501-
// instruction period, each window preceded by a 100-instruction detailed
// warmup on top of the continuous functional warming). The odd period keeps
// windows from phase-locking onto loop bodies. Calibrated on the test-scale
// applications: every app × ISA at 4-way lands within a few percent of the
// exact cycle count (TestSampledAccuracyApps pins the bound).
var DefaultSampleSpec = SampleSpec{Period: 1501, Warmup: 100, Interval: 150}

// Enabled reports whether the spec actually samples.
func (sp SampleSpec) Enabled() bool { return sp.Interval != 0 }

// Validate checks the spec's internal consistency.
func (sp SampleSpec) Validate() error { return sp.cpu().Validate() }

func (sp SampleSpec) cpu() cpu.SampleSpec {
	workers := sp.Parallelism
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return cpu.SampleSpec{Period: sp.Period, Warmup: sp.Warmup, Interval: sp.Interval, Parallelism: workers}
}

// String renders the spec in the "period:warmup:interval" form
// ParseSampleSpec accepts ("" when disabled).
func (sp SampleSpec) String() string {
	if !sp.Enabled() {
		return ""
	}
	return fmt.Sprintf("%d:%d:%d", sp.Period, sp.Warmup, sp.Interval)
}

// ParseSampleSpec parses "period:warmup:interval" (e.g. "50000:2000:2000");
// the empty string yields the disabled spec.
func ParseSampleSpec(s string) (SampleSpec, error) {
	if s == "" {
		return SampleSpec{}, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return SampleSpec{}, fmt.Errorf("invalid sample spec %q (want period:warmup:interval)", s)
	}
	var vals [3]uint64
	for i, p := range parts {
		v, err := strconv.ParseUint(p, 10, 64)
		if err != nil {
			return SampleSpec{}, fmt.Errorf("invalid sample spec %q: %v", s, err)
		}
		vals[i] = v
	}
	sp := SampleSpec{Period: vals[0], Warmup: vals[1], Interval: vals[2]}
	if err := sp.Validate(); err != nil {
		return SampleSpec{}, err
	}
	if !sp.Enabled() {
		return SampleSpec{}, fmt.Errorf("invalid sample spec %q: interval must be positive", s)
	}
	return sp, nil
}

// SampledInfo reports how a sampled run covered the stream and how good the
// estimate is; it rides on Result (and the experiment rows) only for
// sampled runs, so exact-mode JSON output is unchanged.
type SampledInfo struct {
	Period        uint64  `json:"period"`
	Warmup        uint64  `json:"warmup"`
	Interval      uint64  `json:"interval"`
	Intervals     int     `json:"intervals"`      // measured detailed windows
	MeasuredInsts uint64  `json:"measured_insts"` // instructions inside measured windows
	WarmupInsts   uint64  `json:"warmup_insts"`   // detailed-simulated but discarded
	SkippedInsts  uint64  `json:"skipped_insts"`  // fast-forwarded through warming
	TotalInsts    uint64  `json:"total_insts"`
	Coverage      float64 `json:"coverage"`   // measured / total
	EstCycles     int64   `json:"est_cycles"` // total-run cycle estimate at the sampled IPC
	IPCMean       float64 `json:"ipc_mean"`   // mean of per-window IPCs
	IPCStdErr     float64 `json:"ipc_stderr"` // stderr of that mean (interval variance)
}

// sampledInfo converts the cpu-level block, deriving coverage and the
// whole-run cycle estimate from the measured cycles/instructions.
func sampledInfo(s *cpu.Sampled, measuredCycles int64, measuredInsts uint64) *SampledInfo {
	if s == nil {
		return nil
	}
	info := &SampledInfo{
		Period: s.Spec.Period, Warmup: s.Spec.Warmup, Interval: s.Spec.Interval,
		Intervals:     s.Intervals,
		MeasuredInsts: s.MeasuredInsts,
		WarmupInsts:   s.WarmupInsts,
		SkippedInsts:  s.SkippedInsts,
		TotalInsts:    s.TotalInsts,
		Coverage:      s.Coverage(),
		IPCMean:       s.IPCMean,
		IPCStdErr:     s.IPCStdErr,
	}
	if measuredInsts > 0 {
		info.EstCycles = int64(math.Round(
			float64(s.TotalInsts) * float64(measuredCycles) / float64(measuredInsts)))
	}
	return info
}

// estOrExactCycles returns the comparable cycle count of a run: the
// whole-run estimate for sampled results, the exact count otherwise. The
// experiment drivers use it so sampled speed-up ratios compare estimated
// full runs rather than measured-window fragments.
func estOrExactCycles(r Result) int64 {
	if r.Sampled != nil {
		return r.Sampled.EstCycles
	}
	return r.Cycles
}

// RunKernelSampled times one kernel under the sampling regime, sampling the
// replay of the kernel's trace: functional fast-forward skips over the
// recording instead of re-emulating. A disabled spec reproduces RunKernel's
// result exactly.
func RunKernelSampled(kernel string, i ISA, width int, m MemModel, sc Scale, sp SampleSpec) (Result, error) {
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	return runWorkload(traceKey{name: kernel, isa: i, scale: sc}, width, m, sp, nil)
}

// RunAppSampled is RunKernelSampled for a full application.
func RunAppSampled(app string, i ISA, width int, m MemModel, sc Scale, sp SampleSpec) (Result, error) {
	if err := sp.Validate(); err != nil {
		return Result{}, err
	}
	return runWorkload(traceKey{app: true, name: app, isa: i, scale: sc}, width, m, sp, nil)
}
