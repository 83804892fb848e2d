package mom

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/obs"
)

// HotspotRow attributes a run's cycles to one static instruction: its
// disassembly, dynamic execution count, cycle-attribution profile and the
// memory-system events its dynamic instances triggered. Rows with zero
// dynamic count are omitted from reports.
type HotspotRow struct {
	PC             int     `json:"pc"`
	Asm            string  `json:"asm"`
	Count          uint64  `json:"count"`
	Cycles         int64   `json:"cycles"`
	Profile        Profile `json:"profile"`
	L1Misses       uint64  `json:"l1_misses"`
	L2Misses       uint64  `json:"l2_misses"`
	MSHRStalls     uint64  `json:"mshr_stalls"`
	WriteBufStalls uint64  `json:"write_buf_stalls"`
}

// HotspotReport is the per-PC hotspot profile of one timed run. The per-row
// profiles partition the run's cycles: summed bucket by bucket over Rows
// they reproduce Profile exactly, and Profile sums to Cycles (enforced by
// CheckInvariants and the test suite).
type HotspotReport struct {
	Workload string       `json:"workload"`
	ISA      ISA          `json:"isa"`
	Width    int          `json:"width"`
	MemName  string       `json:"mem"`
	Cycles   int64        `json:"cycles"`
	Insts    uint64       `json:"insts"`
	Profile  Profile      `json:"profile"`
	Rows     []HotspotRow `json:"rows"`
	Sampled  *SampledInfo `json:"sampled,omitempty"`
}

// CheckInvariants verifies the exactness of the per-PC attribution: row
// profiles sum bucket-by-bucket to the run profile, row cycles equal each
// row's profile total, and the run profile sums to Cycles. Degenerate runs
// that graduated no instructions have no rows to check.
func (h HotspotReport) CheckInvariants() error {
	if h.Insts == 0 {
		return nil
	}
	if t := h.Profile.Total(); t != h.Cycles {
		return fmt.Errorf("%s/%s/%d-way (%s): profile buckets sum to %d, want Cycles=%d",
			h.Workload, h.ISA, h.Width, h.MemName, t, h.Cycles)
	}
	var sum Profile
	for _, r := range h.Rows {
		if r.Profile.Total() != r.Cycles {
			return fmt.Errorf("%s/%s/%d-way (%s): PC %d row profile sums to %d, want %d",
				h.Workload, h.ISA, h.Width, h.MemName, r.PC, r.Profile.Total(), r.Cycles)
		}
		sum.Add(r.Profile)
	}
	if sum != h.Profile {
		return fmt.Errorf("%s/%s/%d-way (%s): per-PC buckets sum to %+v, want %+v",
			h.Workload, h.ISA, h.Width, h.MemName, sum, h.Profile)
	}
	return nil
}

// hotspotReport times one workload with a Hotspot aggregator attached and
// assembles the per-PC report, rows sorted by attributed cycles (then PC).
// Under a sampling regime the observer sees measured-interval instructions
// only, so the per-PC rows still sum exactly to the (measured-interval) run
// profile.
func hotspotReport(key traceKey, width int, m MemModel, sp SampleSpec) (HotspotReport, error) {
	p, err := key.program()
	if err != nil {
		return HotspotReport{}, err
	}
	hot := obs.NewHotspot(len(p.Insts))
	res, err := runWorkload(key, width, m, sp, hot)
	if err != nil {
		return HotspotReport{}, err
	}
	rep := HotspotReport{
		Workload: res.Workload, ISA: res.ISA, Width: res.Width, MemName: res.MemName,
		Cycles: res.Cycles, Insts: res.Insts, Profile: res.Profile, Sampled: res.Sampled,
	}
	for pc := 0; pc < hot.Statics(); pc++ {
		n := hot.Count(pc)
		if n == 0 {
			continue
		}
		prof := hot.Profile(pc)
		l1, l2, mshr, wbuf := hot.MemEvents(pc)
		rep.Rows = append(rep.Rows, HotspotRow{
			PC: pc, Asm: p.Insts[pc].String(), Count: n,
			Cycles: prof.Total(), Profile: prof,
			L1Misses: l1, L2Misses: l2, MSHRStalls: mshr, WriteBufStalls: wbuf,
		})
	}
	sort.SliceStable(rep.Rows, func(a, b int) bool {
		if rep.Rows[a].Cycles != rep.Rows[b].Cycles {
			return rep.Rows[a].Cycles > rep.Rows[b].Cycles
		}
		return rep.Rows[a].PC < rep.Rows[b].PC
	})
	return rep, nil
}

// KernelHotspots profiles one kernel per static instruction.
func KernelHotspots(kernel string, i ISA, width int, m MemModel, sc Scale) (HotspotReport, error) {
	return hotspotReport(traceKey{name: kernel, isa: i, scale: sc}, width, m, SampleSpec{})
}

// AppHotspots profiles one application per static instruction.
func AppHotspots(app string, i ISA, width int, m MemModel, sc Scale) (HotspotReport, error) {
	return hotspotReport(traceKey{app: true, name: app, isa: i, scale: sc}, width, m, SampleSpec{})
}

// HotspotStudy profiles every kernel at every ISA level on the given issue
// width with perfect memory (the machine of the kernel study), checking the
// attribution invariants of every report. Under an enabled spec the per-PC
// buckets cover (and sum exactly to) the measured intervals.
func HotspotStudy(ctx context.Context, sc Scale, width int, sp SampleSpec) ([]HotspotReport, error) {
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	return kernelGrid(ctx, sc, 1, func(key traceKey, _ int) (HotspotReport, error) {
		rep, err := hotspotReport(key, width, PerfectMemory(1), sp)
		if err != nil {
			return HotspotReport{}, err
		}
		return rep, rep.CheckInvariants()
	})
}
