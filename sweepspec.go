package mom

import (
	"encoding/json"
	"fmt"
	"strings"
)

// This file defines the declarative design-space sweep spec: a grid over
// the experiment axes (experiment × scale × workload × ISA × width ×
// memory model × sample regime) that expands into the canonical
// JobRequest form of every grid point. Expansion is deterministic — the
// same spec always yields the same ordered request list — and deduplicates
// up front by content-address key, so a grid whose axes collapse under
// normalisation (or whose axes repeat a value) never submits the same
// computation twice. The sweep engine in internal/sweep executes the
// expanded list (in-process or against a momserver's batch endpoint) and
// reduces the result documents to Pareto-frontier reports.

// SweepSpec is the declarative form of one design-space exploration. Exps
// is required; every other axis has a sensible default and applies only to
// the experiments whose catalogue entry consumes the matching request
// field (e.g. fig5 consumes no width, so a fig5 sweep over four widths is
// one point, not four).
type SweepSpec struct {
	Name   string   `json:"name,omitempty"`   // report label
	Exps   []string `json:"exps"`             // experiments to grid over (see ExpNames)
	Scales []string `json:"scales,omitempty"` // default ["test"]
	Widths []int    `json:"widths,omitempty"` // default [4]
	ISAs   []string `json:"isas,omitempty"`   // default all four levels
	Mems   []string `json:"mems,omitempty"`   // default ["perfect"] (see MemModelNames)
	// Kernels / Apps select the workloads of the kernel/app (and
	// regsweep/memsweep) experiments; empty means every workload.
	Kernels []string `json:"kernels,omitempty"`
	Apps    []string `json:"apps,omitempty"`
	// Samples lists sampling regimes in the "period:warmup:interval" form
	// of ParseSampleSpec; "" is exact simulation. Default [""].
	Samples []string `json:"samples,omitempty"`
	// Refine enables the sampled-first/exact-refine strategy: after the
	// grid runs (sampled where the axis says so), the Pareto-frontier
	// points are re-run exact to confirm the ranking.
	Refine bool `json:"refine,omitempty"`
}

// ParseSweepSpec decodes a spec document strictly: unknown fields are an
// error, so a typoed axis name fails instead of silently shrinking the
// grid.
func ParseSweepSpec(data []byte) (SweepSpec, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var s SweepSpec
	if err := dec.Decode(&s); err != nil {
		return s, fmt.Errorf("sweep spec: %v", err)
	}
	return s, nil
}

// withDefaults fills the optional axes.
func (s SweepSpec) withDefaults() SweepSpec {
	if len(s.Scales) == 0 {
		s.Scales = []string{"test"}
	}
	if len(s.Widths) == 0 {
		s.Widths = []int{4}
	}
	if len(s.ISAs) == 0 {
		for _, i := range AllISAs {
			s.ISAs = append(s.ISAs, i.String())
		}
	}
	if len(s.Mems) == 0 {
		s.Mems = []string{"perfect"}
	}
	if len(s.Kernels) == 0 {
		s.Kernels = KernelNames()
	}
	if len(s.Apps) == 0 {
		s.Apps = AppNames()
	}
	if len(s.Samples) == 0 {
		s.Samples = []string{""}
	}
	return s
}

// Expand materialises the grid: the cross product of every consumed axis,
// in a fixed nesting order (experiment, scale, workload, ISA, width,
// memory, sample), each point normalised and deduplicated by its
// content-address key. The returned requests are in canonical form and
// first-seen order, so the same spec always produces the same ordered key
// list, and the list never contains two requests meaning the same
// computation.
func (s SweepSpec) Expand() ([]JobRequest, error) {
	if len(s.Exps) == 0 {
		return nil, fmt.Errorf("sweep spec: exps is required (valid: %s)", strings.Join(ExpNames, ", "))
	}
	s = s.withDefaults()
	var (
		out  []JobRequest
		seen = map[string]bool{}
	)
	add := func(r JobRequest) error {
		n, err := r.Normalized()
		if err != nil {
			return fmt.Errorf("sweep spec: point %+v: %v", r, err)
		}
		key, err := n.Key()
		if err != nil {
			return err
		}
		if seen[key] {
			return nil
		}
		seen[key] = true
		out = append(out, n)
		return nil
	}
	// Expansion only loops over the axes an experiment consumes, so
	// unconsumed ones never multiply the grid.
	axis := func(consumed bool, vals []string) []string {
		if consumed {
			return vals
		}
		return []string{""}
	}
	for _, exp := range s.Exps {
		e, ok := lookupExp(exp)
		if !ok {
			return nil, fmt.Errorf("sweep spec: unknown experiment %q (valid: %s)", exp, strings.Join(ExpNames, ", "))
		}
		kernels, apps := axis(e.kernel, s.Kernels), axis(e.app, s.Apps)
		isas, mems, samples := axis(e.isa, s.ISAs), axis(e.mem, s.Mems), axis(e.sample, s.Samples)
		widths := []int{0}
		if e.width {
			widths = s.Widths
		}
		for _, sc := range s.Scales {
			for _, k := range kernels {
				for _, a := range apps {
					for _, i := range isas {
						for _, w := range widths {
							for _, m := range mems {
								for _, smp := range samples {
									sp, err := ParseSampleSpec(smp)
									if err != nil {
										return nil, fmt.Errorf("sweep spec: sample %q: %v", smp, err)
									}
									req := JobRequest{
										Exp: exp, Scale: sc, Width: w, ISA: i, Mem: m,
										Kernel: k, App: a,
										SamplePeriod: sp.Period, SampleWarmup: sp.Warmup,
										SampleInterval: sp.Interval,
									}
									if err := add(req); err != nil {
										return nil, err
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return out, nil
}

// Keys returns the content-address key of every request, in order — the
// identity of the sweep's result set.
func Keys(reqs []JobRequest) ([]string, error) {
	keys := make([]string, len(reqs))
	for i, r := range reqs {
		k, err := r.Key()
		if err != nil {
			return nil, err
		}
		keys[i] = k
	}
	return keys, nil
}
