package mem

// Warmer is the functional-warming interface for sampled simulation, which
// *Hierarchy implements: a warm touch replays an access's effect on
// long-lived state — cache tag arrays, LRU order, dirty bits — without
// charging any timing resource (ports, banks, MSHRs, write buffer, DRAM)
// and without counting any Stats event. During fast-forward between
// detailed windows the sampling controller calls these touches directly on
// the hierarchy for every memory reference, so the tag arrays a detailed
// window inherits look as if the skipped span had been simulated in full.
// A model without tag arrays (Perfect) has nothing to warm.
//
// Warming is intentionally order-faithful but contention-blind: two
// accesses that would have been reordered by bank conflicts touch the
// arrays in program order here. Tag state (unlike timing) is insensitive
// to that reordering at L1/L2 granularity, which is what makes the touch
// path cheap.
type Warmer interface {
	// WarmLoad touches the lines a scalar load of size bytes at addr would
	// fetch (including a line-crossing second access).
	WarmLoad(addr uint64, size int)
	// WarmStore touches the line a scalar store probes (write-through
	// no-allocate L1 probe plus the L2 line the write buffer drains into).
	WarmStore(addr uint64, size int)
	// WarmLoadVector touches every line a strided vector load of n 8-byte
	// elements would fetch, following the configured vector organisation.
	WarmLoadVector(base uint64, stride int64, n int)
	// WarmStoreVector is the store counterpart of WarmLoadVector, including
	// the L1 invalidations MOM stores perform on the vector-cache paths.
	WarmStoreVector(base uint64, stride int64, n int)
}

// warm touches one L2 line's tag state: LRU refresh on hit, plain fill on
// miss (the evicted line's writeback is timing-only, so it is dropped).
func (l *level2) warm(addr uint64, store bool) {
	if l.arr.lookup(addr, store) {
		return
	}
	l.arr.fill(addr, store)
}

// warmLoadElem mirrors scalarLoad's state effects: L1 probe, and on a miss
// the L2 touch plus the write-through (never dirty) L1 fill.
func (h *Hierarchy) warmLoadElem(addr uint64) {
	if h.l1.lookup(addr, false) {
		return
	}
	h.l2.warm(addr, false)
	h.l1.fill(addr, false)
}

// L1Hit reports whether a scalar load of size bytes at addr stays inside
// one L1 line that the L1 holds. The L1 is direct-mapped, so such a hit
// refreshes no LRU stamp: warming the load changes nothing, and a warming
// walk that tests L1Hit first calls WarmLoad only when it fails. L1Hit
// inlines into the walk; WarmLoad with the test in front would not.
func (h *Hierarchy) L1Hit(addr uint64, size int) bool {
	return (addr&(h.l1LineSz-1))+uint64(size) <= h.l1LineSz && h.l1.holds(addr)
}

// WarmLoad implements Warmer.
func (h *Hierarchy) WarmLoad(addr uint64, size int) {
	h.warmLoadElem(addr)
	if (addr&(h.l1LineSz-1))+uint64(size) > h.l1LineSz {
		h.warmLoadElem(addr + uint64(size))
	}
}

// WarmStore implements Warmer. It mirrors storeElem's state effects: the
// dirty L2 touch the write buffer would eventually perform. storeElem's
// no-allocate L1 probe changes nothing in the direct-mapped L1, so warming
// leaves it out.
func (h *Hierarchy) WarmStore(addr uint64, size int) {
	h.l2.warm(addr, true)
}

// WarmLoadVector implements Warmer.
func (h *Hierarchy) WarmLoadVector(base uint64, stride int64, n int) {
	switch h.cfg.Mode {
	case ModeVectorCache, ModeCollapsing:
		h.warmVC(base, stride, n, false)
	default:
		for k := 0; k < n; k++ {
			addr := base + uint64(int64(k)*stride)
			if h.L1Hit(addr, 8) {
				continue
			}
			h.warmLoadElem(addr)
			if (addr&(h.l1LineSz-1))+8 > h.l1LineSz {
				h.warmLoadElem(addr + 8)
			}
		}
	}
}

// WarmStoreVector implements Warmer.
func (h *Hierarchy) WarmStoreVector(base uint64, stride int64, n int) {
	switch h.cfg.Mode {
	case ModeVectorCache, ModeCollapsing:
		h.warmVC(base, stride, n, true)
	default:
		for k := 0; k < n; k++ {
			h.l2.warm(base+uint64(int64(k)*stride), true)
		}
	}
}

// warmVC touches the aligned L2 line-pair windows a vector-cache or
// collapsing-buffer access walks, deduplicating consecutive elements in the
// same window, and performs the store-side L1 invalidations (inclusion
// coherence), including the extra line a pair-spilling element reaches.
func (h *Hierarchy) warmVC(base uint64, stride int64, n int, store bool) {
	pairSz := 2 * h.l2LineSz
	prevWin := ^uint64(0)
	for k := 0; k < n; k++ {
		a := base + uint64(int64(k)*stride)
		win := a &^ (pairSz - 1)
		if win != prevWin {
			h.l2.warm(win, store)
			h.l2.warm(win+h.l2LineSz, store)
			prevWin = win
		}
		if store {
			h.l1.invalidate(a)
		}
		if a+8 > win+pairSz {
			h.l2.warm(win+pairSz, store)
			if store {
				h.l1.invalidate(win + pairSz)
			}
		}
	}
}
