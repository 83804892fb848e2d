package main

import (
	"fmt"
	"math/rand"

	mom "repro"
	"repro/internal/isa"
	"repro/internal/mem"
)

// scale is the workload size every benchmark unit runs at: the size the
// paper's figures use.
const scale = mom.ScaleBench

// maxInsts mirrors the program's per-run dynamic instruction cap for the
// layer calls the benchmark makes below the mom package; every bench-scale
// trace is far shorter, so the cap never binds.
const maxInsts = 400_000_000

// cacheNames maps Figure 7's cache organisations to their request
// vocabulary (mom.ParseMemModel) and hierarchy modes.
var cacheNames = map[mom.CacheMode]string{
	mom.Conventional:     "conv",
	mom.MultiAddress:     "multi",
	mom.VectorCache:      "vector",
	mom.CollapsingBuffer: "collapsing",
}

var hierModes = map[string]mem.VectorMode{
	"conv":       mem.ModeConventional,
	"multi":      mem.ModeMultiAddress,
	"vector":     mem.ModeVectorCache,
	"collapsing": mem.ModeCollapsing,
}

// unit is one simulated point: a workload on one machine configuration.
type unit struct {
	ID    string
	App   bool
	Name  string
	ISA   mom.ISA
	Width int
	Mem   string // a mom.ParseMemModel name
}

// traceID names the (workload, ISA) trace a unit replays.
func (u unit) traceID() string {
	kind := "kernel"
	if u.App {
		kind = "app"
	}
	return fmt.Sprintf("%s/%s/%s", kind, u.Name, u.ISA)
}

var isaExts = map[mom.ISA]isa.Ext{
	mom.Alpha: isa.ExtAlpha, mom.MMX: isa.ExtMMX, mom.MDMX: isa.ExtMDMX, mom.MOM: isa.ExtMOM,
}

func (u unit) ext() isa.Ext { return isaExts[u.ISA] }

func (u unit) model() mom.MemModel {
	m, err := mom.ParseMemModel(u.Mem)
	if err != nil {
		panic(err) // unit tables only use valid names
	}
	return m
}

// hierarchy returns a fresh detailed hierarchy for a Figure 7 unit; ok is
// false for the perfect-memory kernel units.
func (u unit) hierarchy() (*mem.Hierarchy, bool) {
	mode, ok := hierModes[u.Mem]
	if !ok {
		return nil, false
	}
	return mem.NewHierarchy(mem.HierConfig{Width: u.Width, Mode: mode}), true
}

// request is the unit as a job-service request.
func (u unit) request(sp mom.SampleSpec) mom.JobRequest {
	r := mom.JobRequest{Exp: "kernel", Scale: "bench", Width: u.Width, ISA: u.ISA.String(), Mem: u.Mem,
		SamplePeriod: sp.Period, SampleWarmup: sp.Warmup, SampleInterval: sp.Interval, SamplePar: sp.Parallelism}
	if u.App {
		r.Exp, r.App = "app", u.Name
	} else {
		r.Kernel = u.Name
	}
	return r
}

// fig5Units are the 128 points of Figure 5: every kernel, ISA and width on
// 1-cycle perfect memory.
func fig5Units() []unit {
	var us []unit
	for _, k := range mom.KernelNames() {
		for _, i := range mom.AllISAs {
			for _, w := range mom.Widths {
				us = append(us, unit{ID: fmt.Sprintf("fig5/%s/%s/%d", k, i, w), Name: k, ISA: i, Width: w, Mem: "perfect"})
			}
		}
	}
	return us
}

// fig7Units are the 50 points of Figure 7: every application on the five
// ISA/cache configurations at widths 4 and 8.
func fig7Units() []unit {
	var us []unit
	for _, a := range mom.AppNames() {
		for _, c := range mom.Figure7Configs {
			for _, w := range []int{4, 8} {
				m := cacheNames[c.Cache]
				us = append(us, unit{ID: fmt.Sprintf("fig7/%s/%s/%s/%d", a, c.ISA, m, w),
					App: true, Name: a, ISA: c.ISA, Width: w, Mem: m})
			}
		}
	}
	return us
}

// servicePoints are the 256 distinct kernel jobs of the service workload:
// every kernel, ISA and width on 1- and 50-cycle perfect memory.
func servicePoints() []unit {
	var us []unit
	for _, m := range []string{"perfect", "perfect50"} {
		for _, k := range mom.KernelNames() {
			for _, i := range mom.AllISAs {
				for _, w := range mom.Widths {
					us = append(us, unit{ID: fmt.Sprintf("svc/%s/%s/%d/%s", k, i, w, m), Name: k, ISA: i, Width: w, Mem: m})
				}
			}
		}
	}
	return us
}

// traceSet lists each distinct trace the units replay, one unit per trace
// as its representative, in first-seen order.
func traceSet(us []unit) []unit {
	seen := map[string]bool{}
	var out []unit
	for _, u := range us {
		if !seen[u.traceID()] {
			seen[u.traceID()] = true
			out = append(out, u)
		}
	}
	return out
}

// permuted returns us in the order of one seeded permutation.
func permuted(rng *rand.Rand, us []unit) []unit {
	out := make([]unit, len(us))
	for i, j := range rng.Perm(len(us)) {
		out[i] = us[j]
	}
	return out
}

// svcOp is one submission of the service workload's closed loop.
type svcOp struct {
	Point int  // index into the round's point list
	Hit   bool // a re-submission of a point this client already computed
}

// serviceSchedule deals a seeded permutation of npoints between the
// clients and gives every point 2 to 4 re-submissions, placed at seeded
// positions after the point's own computation in the same client's list.
// A client waits for each job to finish before its next submission, so
// every re-submission is a store hit and reads interleave with writes.
func serviceSchedule(rng *rand.Rand, npoints, clients int) [][]svcOp {
	perm := rng.Perm(npoints)
	out := make([][]svcOp, clients)
	for c := 0; c < clients; c++ {
		var mine []int
		for i := c; i < npoints; i += clients {
			mine = append(mine, perm[i])
		}
		hitsAt := make([][]int, len(mine)+1) // slot s runs before compute s
		for i, p := range mine {
			for k := 2 + rng.Intn(3); k > 0; k-- {
				s := i + 1 + rng.Intn(len(mine)-i)
				hitsAt[s] = append(hitsAt[s], p)
			}
		}
		for s := range hitsAt {
			for _, p := range hitsAt[s] {
				out[c] = append(out[c], svcOp{Point: p, Hit: true})
			}
			if s < len(mine) {
				out[c] = append(out[c], svcOp{Point: mine[s]})
			}
		}
	}
	return out
}
