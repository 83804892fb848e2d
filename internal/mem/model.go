// Package mem implements the memory-system timing models: an idealised
// fixed-latency memory (used for the kernel-level study, Figure 5 and the
// latency-tolerance experiment) and the detailed two-level hierarchy of the
// full-application study (Section 4.2), including the three MOM-specific
// cache organisations: multi-address cache, vector cache and collapsing
// buffer cache (Figure 6 / Table 3).
package mem

// Model is the timing interface the CPU core uses. All methods take and
// return absolute cycle numbers. Models are single-core and not safe for
// concurrent use (like the simulated hardware, there is one of them).
type Model interface {
	Name() string
	// Reset clears all cache state and statistics.
	Reset()
	// Load returns the cycle at which the loaded data is available.
	Load(cycle int64, addr uint64, size int) int64
	// Store returns the cycle at which the store is accepted (write buffer
	// occupancy may push this later; commit stalls until acceptance).
	Store(cycle int64, addr uint64, size int) int64
	// LoadVector times a MOM vector load of n 8-byte elements with the given
	// byte stride. rate is the maximum number of elements the processor can
	// supply addresses for per cycle (memory ports x lanes). It returns the
	// cycle at which the last element is available.
	LoadVector(cycle int64, base uint64, stride int64, n, rate int) int64
	// StoreVector times a MOM vector store; returns acceptance of the last
	// element.
	StoreVector(cycle int64, base uint64, stride int64, n, rate int) int64
	// VectorReservesAllPorts reports whether a MOM memory instruction
	// occupies every CPU memory-issue port while it streams (true for the
	// multi-address organisation, which decouples one access across all
	// ports) or just the port it issued on (vector/collapsing caches, which
	// move whole lines on the L2 side).
	VectorReservesAllPorts() bool
	Stats() Stats
}

// Stats aggregates memory-system event counts. Counter invariants (checked
// by the test suites, cheap enough to assert after any run):
//
//	L1Hits + L1Misses == L1Lookups   (loads, stores and vector elements)
//	L2Hits + L2Misses == L2Lookups
//	L1StoreHits + L1StoreMisses <= L1Lookups
//
// Event counters never feed back into timing: two models that report
// different statistics for the same access sequence are a bug, but fixing a
// counter must never move a cycle. The json tags name the fields of the
// public result documents (mom.MemStats is this type).
type Stats struct {
	Loads     uint64 `json:"loads"`
	Stores    uint64 `json:"stores"`
	VecLoads  uint64 `json:"vec_loads"`
	VecStores uint64 `json:"vec_stores"`
	VecElems  uint64 `json:"vec_elems"`

	L1Lookups uint64 `json:"l1_lookups"` // every L1 tag probe (loads, stores, vector elements)
	L1Hits    uint64 `json:"l1_hits"`
	L1Misses  uint64 `json:"l1_misses"`
	// Store components of the L1 probes above. L1 is write-through
	// no-allocate: a store miss is counted but never fills the line.
	L1StoreHits   uint64 `json:"l1_store_hits"`
	L1StoreMisses uint64 `json:"l1_store_misses"`
	L1VecInvals   uint64 `json:"l1_vec_invals"` // L1 lines invalidated by MOM stores (inclusion coherence)

	L2Lookups uint64 `json:"l2_lookups"`
	L2Hits    uint64 `json:"l2_hits"`
	L2Misses  uint64 `json:"l2_misses"`

	LineAccesses   uint64 `json:"line_accesses"` // vector-cache line(-pair) accesses
	BankConflicts  uint64 `json:"bank_conflicts"`
	MSHRStalls     uint64 `json:"mshr_stalls"` // accesses delayed because every MSHR was in flight
	WriteBufStalls uint64 `json:"write_buf_stalls"`
	WriteBufDrains uint64 `json:"write_buf_drains"` // write-buffer entries drained into L2 (non-coalesced stores)
	DRAMChanBusy   uint64 `json:"dram_chan_busy"`   // cycles requests waited for the Rambus channel
	DRAMBankBusy   uint64 `json:"dram_bank_busy"`   // cycles requests waited for a busy DRAM bank
	Unaligned      uint64 `json:"unaligned"`
}

// Outcome summarises the memory-system events one dynamic instruction's
// accesses triggered, for the instruction-level observability layer: the
// CPU core snapshots Stats around an access and Diff extracts the delta.
// Like the counters it derives from, an Outcome never feeds back into
// timing.
type Outcome struct {
	L1Hits, L1Misses           uint64
	L2Hits, L2Misses           uint64
	MSHRStalls, WriteBufStalls uint64
}

// Diff returns the per-access outcome between two Stats snapshots.
func Diff(before, after Stats) Outcome {
	return Outcome{
		L1Hits:         after.L1Hits - before.L1Hits,
		L1Misses:       after.L1Misses - before.L1Misses,
		L2Hits:         after.L2Hits - before.L2Hits,
		L2Misses:       after.L2Misses - before.L2Misses,
		MSHRStalls:     after.MSHRStalls - before.MSHRStalls,
		WriteBufStalls: after.WriteBufStalls - before.WriteBufStalls,
	}
}

// Add accumulates other into s.
func (s *Stats) Add(o Stats) {
	s.Loads += o.Loads
	s.Stores += o.Stores
	s.VecLoads += o.VecLoads
	s.VecStores += o.VecStores
	s.VecElems += o.VecElems
	s.L1Lookups += o.L1Lookups
	s.L1Hits += o.L1Hits
	s.L1Misses += o.L1Misses
	s.L1StoreHits += o.L1StoreHits
	s.L1StoreMisses += o.L1StoreMisses
	s.L1VecInvals += o.L1VecInvals
	s.L2Lookups += o.L2Lookups
	s.L2Hits += o.L2Hits
	s.L2Misses += o.L2Misses
	s.LineAccesses += o.LineAccesses
	s.BankConflicts += o.BankConflicts
	s.MSHRStalls += o.MSHRStalls
	s.WriteBufStalls += o.WriteBufStalls
	s.WriteBufDrains += o.WriteBufDrains
	s.DRAMChanBusy += o.DRAMChanBusy
	s.DRAMBankBusy += o.DRAMBankBusy
	s.Unaligned += o.Unaligned
}
