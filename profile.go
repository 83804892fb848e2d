package mom

import (
	"fmt"

	"repro/internal/obs"
)

// Profile is the cycle-attribution breakdown of a timed run: every
// simulated cycle is classified into exactly one bucket of the stall
// taxonomy, so the buckets always sum to Result.Cycles. See obs.Profile for
// how each cycle is attributed (the commit frontier walks forward and every
// cycle it crosses is charged to the structure that held it back).
type Profile = obs.Profile

// ProfileBucket is one named entry of the stall taxonomy.
type ProfileBucket = obs.ProfileBucket

// CheckInvariants verifies the accounting identities that keep the profile
// and the memory-event counters honest: the stall-attribution buckets sum
// exactly to Cycles, every cache lookup is either a hit or a miss, and the
// store components never exceed the totals. It returns the first violated
// identity; experiment drivers call it on every run so a broken counter
// fails loudly instead of skewing a figure.
func (r Result) CheckInvariants() error {
	if t := r.Profile.Total(); t != r.Cycles {
		return fmt.Errorf("%s/%s/%d-way (%s): profile buckets sum to %d, want Cycles=%d",
			r.Workload, r.ISA, r.Width, r.MemName, t, r.Cycles)
	}
	m := r.Mem
	if m.L1Hits+m.L1Misses != m.L1Lookups {
		return fmt.Errorf("%s/%s/%d-way (%s): L1 hits %d + misses %d != lookups %d",
			r.Workload, r.ISA, r.Width, r.MemName, m.L1Hits, m.L1Misses, m.L1Lookups)
	}
	if m.L2Hits+m.L2Misses != m.L2Lookups {
		return fmt.Errorf("%s/%s/%d-way (%s): L2 hits %d + misses %d != lookups %d",
			r.Workload, r.ISA, r.Width, r.MemName, m.L2Hits, m.L2Misses, m.L2Lookups)
	}
	if m.L1StoreHits > m.L1Hits || m.L1StoreMisses > m.L1Misses {
		return fmt.Errorf("%s/%s/%d-way (%s): store hit/miss components (%d/%d) exceed totals (%d/%d)",
			r.Workload, r.ISA, r.Width, r.MemName,
			m.L1StoreHits, m.L1StoreMisses, m.L1Hits, m.L1Misses)
	}
	if m.WriteBufDrains > m.Stores+m.VecElems {
		return fmt.Errorf("%s/%s/%d-way (%s): %d write-buffer drains exceed %d store elements",
			r.Workload, r.ISA, r.Width, r.MemName, m.WriteBufDrains, m.Stores+m.VecElems)
	}
	return nil
}
