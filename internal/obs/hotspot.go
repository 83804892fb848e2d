package obs

// Hotspot aggregates the event stream into a per-static-instruction (per-PC)
// profile: dynamic execution count, attributed cycles per stall bucket, and
// memory-event counts. The attribution is exact by construction — every
// cycle the commit frontier crosses is charged to precisely one (PC, bucket)
// pair — so summing the per-PC profiles reproduces the run's Profile, the
// invariant mom.HotspotReport.CheckInvariants enforces.
type Hotspot struct {
	counts   []uint64
	profiles []Profile
	l1Miss   []uint64
	l2Miss   []uint64
	mshr     []uint64
	wbuf     []uint64
}

// NewHotspot returns an aggregator for a program of nStatic instructions.
func NewHotspot(nStatic int) *Hotspot {
	return &Hotspot{
		counts:   make([]uint64, nStatic),
		profiles: make([]Profile, nStatic),
		l1Miss:   make([]uint64, nStatic),
		l2Miss:   make([]uint64, nStatic),
		mshr:     make([]uint64, nStatic),
		wbuf:     make([]uint64, nStatic),
	}
}

// Observe accumulates one dynamic instruction.
func (h *Hotspot) Observe(ev *Event) {
	pc := ev.PC
	h.counts[pc]++
	p := &h.profiles[pc]
	p.Commit += ev.Committed
	p.StoreCommit += ev.StoreGap
	*p.buckets()[ev.Bucket] += ev.ExecGap
	h.l1Miss[pc] += ev.Mem.L1Misses
	h.l2Miss[pc] += ev.Mem.L2Misses
	h.mshr[pc] += ev.Mem.MSHRStalls
	h.wbuf[pc] += ev.Mem.WriteBufStalls
}

// Count returns the dynamic execution count of a static instruction.
func (h *Hotspot) Count(pc int) uint64 { return h.counts[pc] }

// Profile returns the cycles attributed to a static instruction, per
// stall bucket.
func (h *Hotspot) Profile(pc int) Profile { return h.profiles[pc] }

// MemEvents returns the accumulated memory-event counts of a static
// instruction: L1 misses, L2 misses, MSHR stalls and write-buffer stalls.
func (h *Hotspot) MemEvents(pc int) (l1Miss, l2Miss, mshr, wbuf uint64) {
	return h.l1Miss[pc], h.l2Miss[pc], h.mshr[pc], h.wbuf[pc]
}

// Statics returns the number of static instructions tracked.
func (h *Hotspot) Statics() int { return len(h.counts) }
