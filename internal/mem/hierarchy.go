package mem

import (
	"fmt"

	"repro/internal/isa"
)

// VectorMode selects how MOM vector accesses reach memory (Figure 6).
type VectorMode int

const (
	// ModeConventional has no special vector path (Alpha/MMX/MDMX machines;
	// a MOM access would be decomposed element-wise through L1 like
	// multi-address, but conventional configs never run MOM code).
	ModeConventional VectorMode = iota
	// ModeMultiAddress decouples a vector access element-wise across all
	// memory ports into the banked L1.
	ModeMultiAddress
	// ModeVectorCache bypasses L1: stride-one-ish requests are serviced as
	// whole interleaved line pairs out of the L2-side vector cache.
	ModeVectorCache
	// ModeCollapsing adds the collapsing buffer: any elements falling in a
	// consecutive line pair are gathered in one access (higher latency).
	ModeCollapsing
)

func (m VectorMode) String() string {
	switch m {
	case ModeConventional:
		return "conventional"
	case ModeMultiAddress:
		return "multi-address"
	case ModeVectorCache:
		return "vector-cache"
	case ModeCollapsing:
		return "collapsing-buffer"
	}
	return "?"
}

// HierConfig selects a detailed-hierarchy configuration (Table 3).
type HierConfig struct {
	Width int // 4 or 8 (port/bank/latency scaling)
	Mode  VectorMode

	// Optional overrides for ablation studies (0 = Table 3 default).
	MSHRs   int // miss-status holding registers per cache level
	L1Banks int // L1 bank count
}

// dram models the Direct Rambus main memory: one 3.2 GB/s channel (about
// 6.4 bytes per CPU cycle, so a 128-byte L2 line occupies the channel for
// 20 cycles) feeding 8 internal banks.
type dram struct {
	latency  int64
	chanOcc  int64
	bankOcc  int64
	chanFree int64
	banks    [8]int64
}

func newDRAM() *dram { return &dram{latency: 60, chanOcc: 20, bankOcc: 40} }

func (d *dram) access(cycle int64, addr uint64, st *Stats) int64 {
	b := (addr >> 13) & 7
	if w := d.chanFree - cycle; w > 0 {
		st.DRAMChanBusy += uint64(w)
	}
	if w := d.banks[b] - cycle; w > 0 {
		st.DRAMBankBusy += uint64(w)
	}
	start := max(cycle, max(d.chanFree, d.banks[b]))
	d.chanFree = start + d.chanOcc
	d.banks[b] = start + d.bankOcc
	return start + d.latency
}

// writeback charges channel/bank occupancy without a latency result.
func (d *dram) writeback(cycle int64, addr uint64, st *Stats) {
	d.access(cycle, addr, st)
}

func (d *dram) reset() {
	d.chanFree = 0
	d.banks = [8]int64{}
}

// level2 is the on-chip 1 MB 2-way write-back L2 with 128-byte lines and
// 8 MSHRs.
type level2 struct {
	arr      *cacheArr
	mshr     *resource
	portFree int64
	lat      int64
	mem      *dram
}

func newLevel2WithMSHRs(mshrs int) *level2 {
	return &level2{
		arr:  newCacheArr(1<<20, 128, 2),
		mshr: newResource(mshrs),
		lat:  6,
		mem:  newDRAM(),
	}
}

// access serves one line request; store marks the line dirty.
func (l *level2) access(cycle int64, addr uint64, store bool, st *Stats) int64 {
	start := max(cycle, l.portFree)
	l.portFree = start + 1
	st.L2Lookups++
	if l.arr.lookup(addr, store) {
		st.L2Hits++
		return start + l.lat
	}
	st.L2Misses++
	slot, mstart := l.mshr.take(start)
	if mstart > start {
		st.MSHRStalls++
	}
	done := l.mem.access(mstart+l.lat, addr, st)
	l.mshr.set(slot, done)
	evicted, wasDirty, wasValid := l.arr.fill(addr, store)
	if wasValid && wasDirty {
		l.mem.writeback(done, evicted, st)
	}
	return done
}

// resetTiming zeroes the level's timing resources, keeping its tags.
func (l *level2) resetTiming() {
	l.mshr.reset()
	l.portFree = 0
	l.mem.reset()
}

// Hierarchy is the full detailed memory system of the application study.
type Hierarchy struct {
	cfg HierConfig

	l1      *cacheArr
	l1Banks []int64
	l1Lat   int64
	l1MSHR  *resource

	wb       *resource // coalescing write buffer slots
	wbLines  []uint64  // line address per slot (for coalescing)
	l2       *level2
	vcPort   int64 // vector-cache port availability
	vcOcc    int64 // cycles a line-pair access occupies the VC port
	vcLat    int64
	nPorts   int
	stats    Stats
	l1LineSz uint64
	l2LineSz uint64
}

// NewHierarchy builds the Table 3 configuration for the given width and
// vector mode.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	if cfg.Width != 4 && cfg.Width != 8 {
		panic(fmt.Sprintf("mem: hierarchy width must be 4 or 8, got %d", cfg.Width))
	}
	mshrs := cfg.MSHRs
	if mshrs <= 0 {
		mshrs = 8
	}
	h := &Hierarchy{cfg: cfg, l2: newLevel2WithMSHRs(mshrs), l1LineSz: 32, l2LineSz: 128}
	h.l1 = newCacheArr(32<<10, 32, 1)
	h.l1MSHR = newResource(mshrs)
	h.wb = newResource(8)
	h.wbLines = make([]uint64, 8)
	banks := 4
	h.l1Lat = 1
	h.nPorts = 2
	if cfg.Width == 8 {
		banks = 8
		h.nPorts = 4
		h.l1Lat = 2
	}
	switch cfg.Mode {
	case ModeVectorCache, ModeCollapsing:
		// Table 3: "L2 latency 8/10 cyc" = vector cache 8, collapsing
		// buffer 10 (the extra collapse network stage), at both widths;
		// the 8-way machine doubles the vector-port width instead.
		h.vcLat = 8
		if cfg.Mode == ModeCollapsing {
			h.vcLat = 10
		}
		h.vcOcc = 2
		banks = 1
		h.l1Lat = 1
		h.nPorts = 1
		if cfg.Width == 8 {
			h.vcOcc = 1
			banks = 2
			h.nPorts = 2
		}
	}
	if cfg.L1Banks > 0 {
		banks = cfg.L1Banks
	}
	h.l1Banks = make([]int64, banks)
	return h
}

func (h *Hierarchy) Name() string {
	return fmt.Sprintf("%s/%d-way", h.cfg.Mode, h.cfg.Width)
}

// Config returns the configuration the hierarchy was built from.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.arr.reset()
	h.ResetTiming()
}

// ResetTiming restarts the ports, banks, MSHRs, the write buffer, the DRAM
// cursors and the statistics and keeps the tag arrays: a hierarchy rolled
// forward to a later window through a sweep's deltas then starts there as
// a fresh one holding that window's tags would.
func (h *Hierarchy) ResetTiming() {
	h.l1MSHR.reset()
	h.wb.reset()
	clear(h.wbLines)
	h.l2.resetTiming()
	clear(h.l1Banks)
	h.vcPort = 0
	h.stats = Stats{}
}

func (h *Hierarchy) Stats() Stats { return h.stats }

func (h *Hierarchy) VectorReservesAllPorts() bool {
	return h.cfg.Mode == ModeMultiAddress || h.cfg.Mode == ModeConventional
}

// scalarLoad runs one (aligned) element access through L1.
func (h *Hierarchy) scalarLoad(cycle int64, addr uint64) int64 {
	b := int(h.l1.line(addr)) % len(h.l1Banks)
	start := max(cycle, h.l1Banks[b])
	if start > cycle {
		h.stats.BankConflicts++
	}
	h.l1Banks[b] = start + 1
	h.stats.L1Lookups++
	if h.l1.lookup(addr, false) {
		h.stats.L1Hits++
		return start + h.l1Lat
	}
	h.stats.L1Misses++
	slot, mstart := h.l1MSHR.take(start)
	if mstart > start {
		h.stats.MSHRStalls++
	}
	done := h.l2.access(mstart+h.l1Lat, addr, false, &h.stats)
	h.l1MSHR.set(slot, done)
	h.l1.fill(addr, false) // write-through: never dirty
	return done
}

// Load times a scalar load, splitting line-crossing accesses.
func (h *Hierarchy) Load(cycle int64, addr uint64, size int) int64 {
	h.stats.Loads++
	done := h.scalarLoad(cycle, addr)
	if (addr&(h.l1LineSz-1))+uint64(size) > h.l1LineSz {
		h.stats.Unaligned++
		d2 := h.scalarLoad(cycle+1, addr+uint64(size))
		done = max(done, d2)
	}
	return done
}

// Store accepts a scalar store: L1 is write-through with a coalescing
// 8-deep write buffer draining into L2.
func (h *Hierarchy) Store(cycle int64, addr uint64, size int) int64 {
	h.stats.Stores++
	return h.storeElem(cycle, addr)
}

// storeElem is one store element's trip through the write-through L1 and
// the coalescing write buffer, without the Stores counter: Store charges it
// once per scalar store, the multi-address vector path once per vector
// store while streaming every element through here. The L1 probe counts a
// hit or a miss either way (no-allocate: a miss never fills the line), so
// L1Hits+L1Misses covers store lookups too.
func (h *Hierarchy) storeElem(cycle int64, addr uint64) int64 {
	h.stats.L1Lookups++
	if h.l1.lookup(addr, false) {
		h.stats.L1Hits++
		h.stats.L1StoreHits++
	} else {
		h.stats.L1Misses++
		h.stats.L1StoreMisses++
	}
	line := addr &^ (h.l2LineSz - 1)
	// Coalesce with an in-flight buffer entry for the same L2 line.
	for i, la := range h.wbLines {
		if la == line && h.wb.busy[i] > cycle {
			return cycle
		}
	}
	slot, start := h.wb.take(cycle)
	if start > cycle {
		h.stats.WriteBufStalls++
	}
	h.stats.WriteBufDrains++
	done := h.l2.access(start, addr, true, &h.stats)
	h.wb.set(slot, done)
	h.wbLines[slot] = line
	return start
}

// LoadVector dispatches by mode.
func (h *Hierarchy) LoadVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	h.stats.VecLoads++
	h.stats.VecElems += uint64(n)
	switch h.cfg.Mode {
	case ModeVectorCache, ModeCollapsing:
		return h.vcAccess(cycle, base, stride, n, false)
	default:
		return h.maAccess(cycle, base, stride, n, rate, false)
	}
}

// StoreVector dispatches by mode.
func (h *Hierarchy) StoreVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	h.stats.VecStores++
	h.stats.VecElems += uint64(n)
	switch h.cfg.Mode {
	case ModeVectorCache, ModeCollapsing:
		return h.vcAccess(cycle, base, stride, n, true)
	default:
		return h.maAccess(cycle, base, stride, n, rate, true)
	}
}

// maAccess: multi-address — elements stream through the banked L1 at the
// port rate, exactly like independent scalar accesses.
func (h *Hierarchy) maAccess(cycle int64, base uint64, stride int64, n, rate int, store bool) int64 {
	if rate < 1 {
		rate = 1
	}
	var done int64
	for k := 0; k < n; k++ {
		addr := base + uint64(int64(k)*stride)
		// Elements stream at the port rate: k/rate is the port/bank
		// occupancy charge, identical for coalesced and drained stores.
		t := cycle + int64(k/rate)
		var d int64
		if store {
			// One VecStores event with n element probes; Stores counts only
			// scalar stores (storeElem leaves it alone).
			d = h.storeElem(t, addr)
		} else {
			d = h.scalarLoad(t, addr)
			if (addr&(h.l1LineSz-1))+8 > h.l1LineSz {
				h.stats.Unaligned++
				d = max(d, h.scalarLoad(t+1, addr+8))
			}
		}
		done = max(done, d)
	}
	return done
}

// vcAccess: the vector / collapsing-buffer cache. Elements are consumed in
// aligned L2 line-pair windows; each window access occupies the VC port and
// checks both lines in the L2 arrays (bypassing L1). MOM stores invalidate
// any stale L1 copies (the exclusive-bit/inclusion coherence of the paper).
func (h *Hierarchy) vcAccess(cycle int64, base uint64, stride int64, n int, store bool) int64 {
	pairSz := 2 * h.l2LineSz
	// A MOM access moves at most isa.MaxVL elements: the marks stay on the
	// stack.
	var marks [isa.MaxVL]bool
	consumed := marks[:n]
	left := n
	var done int64
	for left > 0 {
		// Find the first unconsumed element; its aligned pair is the window.
		first := 0
		for consumed[first] {
			first++
		}
		addr0 := base + uint64(int64(first)*stride)
		win := addr0 &^ (pairSz - 1)
		h.stats.LineAccesses++
		start := max(cycle, h.vcPort)
		h.vcPort = start + h.vcOcc
		// Access the two lines in L2.
		d1 := h.l2.access(start, win, store, &h.stats)
		d2 := h.l2.access(start, win+h.l2LineSz, store, &h.stats)
		d := max(d1, d2) + (h.vcLat - h.l2.lat)
		// Consume elements starting inside the window; an element whose
		// last byte spills past the pair costs one extra line access.
		consume := func(k int) bool {
			a := base + uint64(int64(k)*stride)
			if a < win || a >= win+pairSz {
				return false
			}
			consumed[k] = true
			left--
			if store && h.l1.invalidate(a) {
				h.stats.L1VecInvals++
			}
			if a+8 > win+pairSz {
				h.stats.Unaligned++
				h.stats.LineAccesses++
				dx := h.l2.access(start, win+pairSz, store, &h.stats)
				d = max(d, dx+(h.vcLat-h.l2.lat))
				// The spilled bytes land in the line past the pair; a store
				// must invalidate any stale L1 copy of that line too (same
				// inclusion coherence as the in-window invalidate above).
				if store && h.l1.invalidate(win+pairSz) {
					h.stats.L1VecInvals++
				}
			}
			return true
		}
		if h.cfg.Mode == ModeCollapsing {
			for k := first; k < n; k++ {
				if !consumed[k] {
					consume(k)
				}
			}
		} else {
			// Vector cache: a run of consecutive elements from `first`.
			for k := first; k < n; k++ {
				if consumed[k] {
					continue
				}
				if !consume(k) && k > first {
					break
				}
			}
		}
		done = max(done, d)
	}
	return done
}
