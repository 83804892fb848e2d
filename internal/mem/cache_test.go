package mem

import (
	"fmt"
	"slices"
	"testing"
)

// refLine is one line of refSet.
type refLine struct {
	tag   uint64
	dirty bool
}

// refSet is the reference model of one cache set: its valid lines, most
// recently used first.
type refSet []refLine

func (s refSet) find(tag uint64) int {
	return slices.IndexFunc(s, func(l refLine) bool { return l.tag == tag })
}

// touch moves line i to the front, marking it dirty if asked.
func (s refSet) touch(i int, dirty bool) {
	l := s[i]
	l.dirty = l.dirty || dirty
	copy(s[1:i+1], s[:i])
	s[0] = l
}

// TestCacheArrMatchesReference drives a seeded stream of clean and dirty
// lookups, fills after misses and invalidates through a direct-mapped and a
// 2-way array, and compares every call with a reference model that keeps
// an explicit recency list per set: hit or miss, the evicted line and its
// dirty bit, and whether an invalidate dropped a line. It also pins what
// the journal sees: a set-associative hit lists its slot, a direct-mapped
// hit lists nothing unless it newly dirties the line, and a direct-mapped
// array never stamps or ticks.
func TestCacheArrMatchesReference(t *testing.T) {
	const lineBytes, sets = 32, 4
	for _, ways := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-way", ways), func(t *testing.T) {
			c := newCacheArr(sets*ways*lineBytes, lineBytes, ways)
			c.jr = NewJournal(len(c.slots))
			ref := make([]refSet, sets)
			rng := uint64(7)
			for call := 0; call < 20000; call++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				set, tag := rng>>33%sets, rng>>40%(3*uint64(ways))
				addr := (tag*sets+set)*lineBytes + rng>>50%lineBytes
				dirty := rng>>20&1 != 0
				rs := &ref[set]
				i := rs.find(tag)
				c.jr.Reset()
				what := fmt.Sprintf("call %d (set %d tag %d dirty %v)", call, set, tag, dirty)
				switch rng >> 60 % 4 {
				case 0: // invalidate
					if got := c.invalidate(addr); got != (i >= 0) {
						t.Fatalf("%s: invalidate dropped %v, reference %v", what, got, i >= 0)
					}
					if i >= 0 {
						*rs = slices.Delete(*rs, i, i+1)
					}
				case 1: // probe only
					wasDirty := i >= 0 && (*rs)[i].dirty
					if got := c.lookup(addr, dirty); got != (i >= 0) {
						t.Fatalf("%s: lookup hit %v, reference %v", what, got, i >= 0)
					}
					if i < 0 {
						break
					}
					rs.touch(i, dirty)
					want := 1
					if ways == 1 && (wasDirty || !dirty) {
						want = 0
					}
					if len(c.jr.Touched) != want {
						t.Fatalf("%s: a hit journaled %d slots, want %d", what, len(c.jr.Touched), want)
					}
				default: // access: lookup, and fill on a miss
					if got := c.lookup(addr, dirty); got != (i >= 0) {
						t.Fatalf("%s: lookup hit %v, reference %v", what, got, i >= 0)
					}
					if i >= 0 {
						rs.touch(i, dirty)
						break
					}
					evicted, wasDirty, wasValid := c.fill(addr, dirty)
					evict := len(*rs) == ways
					var want refLine
					if evict {
						want = (*rs)[ways-1]
						*rs = (*rs)[:ways-1]
					}
					if wasValid != evict {
						t.Fatalf("%s: fill evicted a line %v, reference %v", what, wasValid, evict)
					}
					if evict && (evicted != (want.tag*sets+set)*lineBytes || wasDirty != want.dirty) {
						t.Fatalf("%s: fill evicted %#x dirty %v, reference %#x dirty %v",
							what, evicted, wasDirty, (want.tag*sets+set)*lineBytes, want.dirty)
					}
					*rs = slices.Insert(*rs, 0, refLine{tag: tag, dirty: dirty})
				}
			}
			if ways == 1 {
				if c.tick != 0 || slices.ContainsFunc(c.slots, func(e entry) bool { return e.stamp != 0 }) {
					t.Errorf("direct-mapped array stamped its slots (tick %d)", c.tick)
				}
			}
		})
	}
}

// TestVectorAccessAllocs pins the vector paths at zero heap allocations per
// call in all four organisations: a LoadVector and StoreVector pair of
// isa.MaxVL elements, strided to span several line pairs.
func TestVectorAccessAllocs(t *testing.T) {
	for _, mode := range []VectorMode{ModeConventional, ModeMultiAddress, ModeVectorCache, ModeCollapsing} {
		h := NewHierarchy(HierConfig{Width: 4, Mode: mode})
		cycle := int64(0)
		allocs := testing.AllocsPerRun(100, func() {
			cycle = h.LoadVector(cycle+1, 0x10000, 72, 16, 2)
			cycle = h.StoreVector(cycle+1, 0x20000, -40, 16, 2)
		})
		if allocs != 0 {
			t.Errorf("%v: %.1f allocations per LoadVector+StoreVector pair, want 0", mode, allocs)
		}
	}
}
