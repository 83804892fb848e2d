package cpu

import "repro/internal/mem"

// bimodal is a classic 2-bit saturating-counter branch direction predictor
// indexed by static instruction index.
type bimodal struct {
	ctr  []uint8
	mask uint32
	jr   *mem.Journal // non-nil while the sweep journals moved counters (warmRecords)
}

func newBimodal(size int) *bimodal {
	if size&(size-1) != 0 || size == 0 {
		panic("cpu: bimodal size must be a power of two")
	}
	b := &bimodal{ctr: make([]uint8, size), mask: uint32(size - 1)}
	for i := range b.ctr {
		b.ctr[i] = 1 // weakly not-taken
	}
	return b
}

func (b *bimodal) predict(si int) bool {
	return b.ctr[uint32(si)&b.mask] >= 2
}

// update trains the counter and reports whether it moved.
func (b *bimodal) update(si int, taken bool) bool {
	c := &b.ctr[uint32(si)&b.mask]
	if taken {
		if *c < 3 {
			*c++
			return true
		}
	} else if *c > 0 {
		*c--
		return true
	}
	return false
}

// btb is a direct-mapped branch target buffer keyed by static instruction
// index. In a trace-driven model the target value itself is known; the BTB
// models whether the front end could redirect without a bubble.
type btb struct {
	tag  []int32
	mask uint32
	jr   *mem.Journal // non-nil while the sweep journals changed tags (warmRecords)
}

func newBTB(entries int) *btb {
	if entries&(entries-1) != 0 || entries == 0 {
		panic("cpu: BTB entries must be a power of two")
	}
	t := &btb{tag: make([]int32, entries), mask: uint32(entries - 1)}
	for i := range t.tag {
		t.tag[i] = -1
	}
	return t
}

func (t *btb) hit(si int) bool {
	return t.tag[uint32(si)&t.mask] == int32(si)
}

// insert makes si the entry's tag and reports whether the tag changed.
func (t *btb) insert(si int) bool {
	e := &t.tag[uint32(si)&t.mask]
	changed := *e != int32(si)
	*e = int32(si)
	return changed
}
