package mem

// Checkpoint tests: tag snapshots account for their footprint, and the
// deltas a TagJournal cuts roll a second hierarchy forward exactly.

import (
	"slices"
	"testing"
)

// warmChurn drives a deterministic access mix through the Warmer
// interface (no timing, no stats), exercising scalar loads/stores, both
// vector paths and line-crossing accesses.
func warmChurn(w Warmer, seed uint64) {
	for i := uint64(0); i < 2000; i++ {
		addr := (seed + i*i*2654435761) % (1 << 22)
		switch i % 5 {
		case 0:
			w.WarmLoad(addr, 8)
		case 1:
			w.WarmStore(addr, 4)
		case 2:
			w.WarmLoadVector(addr, 16, 8)
		case 3:
			w.WarmStoreVector(addr, 8, 4)
		case 4:
			w.WarmLoad(addr|30, 8)
		}
	}
}

// TestSnapshotBytes: the footprint accounting tracks the valid-line count.
func TestSnapshotBytes(t *testing.T) {
	h := NewHierarchy(HierConfig{Width: 4, Mode: ModeMultiAddress})
	empty := h.SnapshotTags()
	if got := empty.Bytes(); got != 16 { // two bare ticks
		t.Errorf("empty snapshot bytes = %d, want 16", got)
	}
	warmChurn(h, 7)
	if full := h.SnapshotTags(); full.Bytes() <= empty.Bytes() {
		t.Errorf("warmed snapshot (%d bytes) not larger than empty (%d)",
			full.Bytes(), empty.Bytes())
	}
}

// sameSnap is reflect.DeepEqual for cache snapshots, without reflection.
func sameSnap(a, b CacheSnap) bool {
	return a.Ways == b.Ways && a.Tick == b.Tick && slices.Equal(a.Idx, b.Idx) &&
		slices.Equal(a.Tags, b.Tags) && slices.Equal(a.Dirty, b.Dirty) && slices.Equal(a.LastUse, b.LastUse)
}

// TestTagDeltaReplay: deltas journaled over one hierarchy and applied to a
// second reproduce the first's SnapshotTags exactly — lines, dirty bits,
// LRU stamps and ticks — at every cut, in all four modes (the vector-cache
// and collapsing stores take the invalidate path). Both first replay the
// same warm churn, so journaling starts from non-empty arrays. Before each
// cut the second replays a prefix of the period's touches itself, as a
// parallel block simulates a window before it applies the period's delta.
// Every delta lists a slot at most once, and Stop leaves no journal behind.
func TestTagDeltaReplay(t *testing.T) {
	for _, mode := range []VectorMode{ModeConventional, ModeMultiAddress, ModeVectorCache, ModeCollapsing} {
		src, clone := NewHierarchy(HierConfig{Width: 4, Mode: mode}), NewHierarchy(HierConfig{Width: 4, Mode: mode})
		warmChurn(src, 5)
		warmChurn(clone, 5)
		if st := src.SnapshotTags(); len(st.L1.Idx) == 0 || len(st.L2.Idx) == 0 {
			t.Fatalf("%v: the churn left %d L1 and %d L2 lines", mode, len(st.L1.Idx), len(st.L2.Idx))
		}
		j := src.StartJournal()
		state := uint64(99)
		touches := func(w Warmer, seed uint64, n int) {
			rng := seed
			for i := 0; i < n; i++ {
				rng = rng*6364136223846793005 + 1442695040888963407
				addr := (rng >> 20) % (4 << 20) // 4 MB: conflicts in both levels
				switch rng % 6 {
				case 0:
					w.WarmLoad(addr, 8)
				case 1:
					w.WarmLoad(addr|30, 8) // line-crossing
				case 2:
					w.WarmStore(addr, 4)
				case 3:
					w.WarmLoadVector(addr, int64(rng>>8%512)-128, int(rng>>16%16)+1)
				default:
					w.WarmStoreVector(addr, int64(rng>>8%512)-128, int(rng>>16%16)+1)
				}
			}
		}
		for period := 0; period < 60; period++ {
			state = state*2862933555777941757 + 3037000493
			n := int(state>>40%400) + 1
			if period%10 == 9 {
				n = 0 // a period without touches
			}
			touches(src, state, n)
			touches(clone, state, n/3)
			d := j.Cut()
			seen := make(map[uint64]bool)
			for _, e := range d.slots {
				key := e.meta & (1<<distShift - 1) &^ (validBit | dirtyBit)
				if seen[key] {
					t.Fatalf("%v period %d: slot %#x listed twice", mode, period, key)
				}
				seen[key] = true
			}
			if n == 0 && len(d.slots) != 0 {
				t.Errorf("%v period %d: %d slots journaled without a touch", mode, period, len(d.slots))
			}
			clone.ApplyDelta(&d)
			if want, got := src.SnapshotTags(), clone.SnapshotTags(); !sameSnap(got.L1, want.L1) || !sameSnap(got.L2, want.L2) {
				t.Fatalf("%v period %d: the clone's tags differ from the journaled model's after the delta", mode, period)
			}
		}
		j.Stop()
		if src.l1.jr != nil || src.l2.arr.jr != nil {
			t.Errorf("%v: Stop left a journal on the tag arrays", mode)
		}
	}
}
