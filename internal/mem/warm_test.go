package mem

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// warmAccess is one access of a warming stream: a scalar load or store of
// size bytes, or a vector load or store of n elements at stride.
type warmAccess struct {
	kind   int // warmLd, warmSt, warmLdVec or warmStVec
	addr   uint64
	size   int
	stride int64
	n      int
}

const (
	warmLd = iota
	warmSt
	warmLdVec
	warmStVec
)

// warmStream draws a seeded access stream: most addresses in a 16 KB hot
// region the L1 holds, the rest in a 512 KB warm region and an 8 MB cold
// one, so L1 and L2 hits, misses and evictions all occur. Scalar accesses
// of every size are aligned half the time; the rest may cross an L1 line.
// Vector accesses take up to 16 elements at strides that stay in a line,
// spill over line pairs, run backwards or stand still.
func warmStream(seed int64, n int) []warmAccess {
	rng := rand.New(rand.NewSource(seed))
	addr := func() uint64 {
		switch r := rng.Intn(20); {
		case r < 14:
			return 0x10000 + uint64(rng.Intn(16<<10))
		case r < 19:
			return 0x100000 + uint64(rng.Intn(512<<10))
		default:
			return 0x1000000 + uint64(rng.Intn(8<<20))
		}
	}
	strides := []int64{8, -8, 16, 0, 24, 136, 4096}
	out := make([]warmAccess, n)
	for i := range out {
		a := warmAccess{kind: rng.Intn(4), addr: addr()}
		switch a.kind {
		case warmLd, warmSt:
			a.size = 1 << rng.Intn(4)
			if rng.Intn(2) == 0 {
				a.addr &^= uint64(a.size - 1)
			}
		default:
			a.stride = strides[rng.Intn(len(strides))]
			a.n = 1 + rng.Intn(16)
		}
		out[i] = a
	}
	return out
}

// warmFast warms a as the warming walk does: a scalar load calls WarmLoad
// only when the inline L1 test fails.
func warmFast(h *Hierarchy, a warmAccess) (l1Hit bool) {
	switch a.kind {
	case warmLd:
		if l1Hit = h.L1Hit(a.addr, a.size); !l1Hit {
			h.WarmLoad(a.addr, a.size)
		}
	case warmSt:
		h.WarmStore(a.addr, a.size)
	case warmLdVec:
		h.WarmLoadVector(a.addr, a.stride, a.n)
	default:
		h.WarmStoreVector(a.addr, a.stride, a.n)
	}
	return l1Hit
}

// warmFull warms a without the shortcuts: every scalar load calls
// WarmLoad, every store element probes the L1 before its L2 touch, as
// storeElem does, and element-wise vector loads walk every element
// through warmLoadElem.
func warmFull(h *Hierarchy, a warmAccess) {
	store := func(addr uint64) {
		h.l1.lookup(addr, false)
		h.l2.warm(addr, true)
	}
	vc := h.cfg.Mode == ModeVectorCache || h.cfg.Mode == ModeCollapsing
	switch {
	case a.kind == warmLd:
		h.WarmLoad(a.addr, a.size)
	case a.kind == warmSt:
		store(a.addr)
	case vc:
		h.warmVC(a.addr, a.stride, a.n, a.kind == warmStVec)
	default:
		for k := 0; k < a.n; k++ {
			addr := a.addr + uint64(int64(k)*a.stride)
			if a.kind == warmStVec {
				store(addr)
				continue
			}
			h.warmLoadElem(addr)
			if (addr&(h.l1LineSz-1))+8 > h.l1LineSz {
				h.warmLoadElem(addr + 8)
			}
		}
	}
}

// TestWarmShortcutsMatchFull: warming a seeded stream with the inline L1
// test in front of scalar and element-wise vector loads, and with warm
// stores that skip the L1 probe, leaves the tag arrays exactly as warming
// every access in full does, in all four hierarchy modes while journaling:
// after every Cut the same journal lists, deltas, slots, stamps and ticks.
func TestWarmShortcutsMatchFull(t *testing.T) {
	stream := warmStream(7, 40000)
	rng := rand.New(rand.NewSource(8))
	for _, mode := range []VectorMode{ModeConventional, ModeMultiAddress, ModeVectorCache, ModeCollapsing} {
		fast, full := NewHierarchy(HierConfig{Width: 4, Mode: mode}), NewHierarchy(HierConfig{Width: 4, Mode: mode})
		jFast, jFull := fast.StartJournal(), full.StartJournal()
		hits, cuts := 0, 0
		for i := 0; i < len(stream); {
			end := min(len(stream), i+1+rng.Intn(500))
			for ; i < end; i++ {
				if warmFast(fast, stream[i]) {
					hits++
				}
				warmFull(full, stream[i])
			}
			for a, arr := range [2][2]*cacheArr{{fast.l1, full.l1}, {fast.l2.arr, full.l2.arr}} {
				if !slices.Equal(arr[0].jr.Touched, arr[1].jr.Touched) {
					t.Fatalf("%v cut %d: array %d journals %v, in full %v", mode, cuts, a, arr[0].jr.Touched, arr[1].jr.Touched)
				}
			}
			if dFast, dFull := jFast.Cut(), jFull.Cut(); !reflect.DeepEqual(dFast, dFull) {
				t.Fatalf("%v cut %d: deltas differ", mode, cuts)
			}
			for a, arr := range [2][2]*cacheArr{{fast.l1, full.l1}, {fast.l2.arr, full.l2.arr}} {
				if !slices.Equal(arr[0].slots, arr[1].slots) || arr[0].tick != arr[1].tick {
					t.Fatalf("%v cut %d: array %d differs from full warming (tick %d vs %d)", mode, cuts, a, arr[0].tick, arr[1].tick)
				}
			}
			cuts++
		}
		jFast.Stop()
		jFull.Stop()
		if loads := len(stream) / 4; hits < loads/10 {
			t.Errorf("%v: the inline L1 test held for %d of about %d scalar loads; the stream does not exercise it", mode, hits, loads)
		}
	}
}
