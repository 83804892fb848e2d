package mem

// Checkpoint snapshot/restore round-trip tests: a clone seeded from a
// snapshot must behave exactly like the original — same tag state, same
// LRU order, same subsequent timing — for every memory-model organisation.

import (
	"reflect"
	"slices"
	"testing"
)

// churn drives a deterministic access mix through a model, exercising
// scalar loads/stores, both vector paths and line-crossing accesses.
func churn(m Model, seed uint64) {
	cycle := int64(0)
	for i := uint64(0); i < 2000; i++ {
		addr := (seed + i*i*2654435761) % (1 << 22)
		switch i % 5 {
		case 0:
			cycle = m.Load(cycle+1, addr, 8)
		case 1:
			cycle = m.Store(cycle+1, addr, 4)
		case 2:
			cycle = m.LoadVector(cycle+1, addr, 16, 8, 2)
		case 3:
			cycle = m.StoreVector(cycle+1, addr, 8, 4, 2)
		case 4:
			cycle = m.Load(cycle+1, addr|30, 8) // line-crossing
		}
	}
}

// warmChurn is churn through the Warmer interface (no timing, no stats).
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

func snapModels(t *testing.T) map[string]func() Snapshotter {
	t.Helper()
	return map[string]func() Snapshotter{
		"perfect": func() Snapshotter { return NewPerfect(1) },
		"conventional": func() Snapshotter {
			return NewHierarchy(HierConfig{Width: 4, Mode: ModeConventional})
		},
		"multi-address": func() Snapshotter {
			return NewHierarchy(HierConfig{Width: 4, Mode: ModeMultiAddress})
		},
		"vector-cache": func() Snapshotter {
			return NewHierarchy(HierConfig{Width: 4, Mode: ModeVectorCache})
		},
		"collapsing": func() Snapshotter {
			return NewHierarchy(HierConfig{Width: 4, Mode: ModeCollapsing})
		},
	}
}

// TestSnapshotRoundTrip: snapshotting a warmed model and cloning from the
// snapshot reproduces the identical tag state (snapshot of the clone equals
// the original snapshot), and the clone starts with zeroed stats.
func TestSnapshotRoundTrip(t *testing.T) {
	for name, mk := range snapModels(t) {
		src := mk()
		warmChurn(src, 12345)
		snap := src.SnapshotTags()
		cloneM := src.NewFromSnapshot(snap)
		if cloneM.Stats() != (Stats{}) {
			t.Errorf("%s: clone starts with non-zero stats %+v", name, cloneM.Stats())
		}
		clone, ok := cloneM.(Snapshotter)
		if !ok {
			t.Fatalf("%s: clone is not a Snapshotter", name)
		}
		again := clone.SnapshotTags()
		if !reflect.DeepEqual(snap, again) {
			t.Errorf("%s: snapshot round-trip diverged", name)
		}
	}
}

// TestSnapshotCloneBehaves: after restoring, the clone must time a further
// access sequence exactly like the original (same final stats), proving the
// restored LRU order and dirty bits are behaviourally faithful.
func TestSnapshotCloneBehaves(t *testing.T) {
	for name, mk := range snapModels(t) {
		src := mk()
		warmChurn(src, 999)
		clone := src.NewFromSnapshot(src.SnapshotTags())
		orig := mk().NewFromSnapshot(src.SnapshotTags()) // second clone, fresh timing state
		churn(clone, 777)
		churn(orig, 777)
		if clone.Stats() != orig.Stats() {
			t.Errorf("%s: clones diverged after identical access mix:\n%+v\nvs\n%+v",
				name, clone.Stats(), orig.Stats())
		}
	}
}

// TestSnapshotIndependence: mutating a clone never leaks into the source
// model or into sibling clones.
func TestSnapshotIndependence(t *testing.T) {
	src := NewHierarchy(HierConfig{Width: 4, Mode: ModeMultiAddress})
	warmChurn(src, 42)
	snap := src.SnapshotTags()
	a := src.NewFromSnapshot(snap)
	b := src.NewFromSnapshot(snap)
	churn(a, 1)
	if !reflect.DeepEqual(src.SnapshotTags(), snap) {
		t.Error("churning a clone mutated the source model")
	}
	if !reflect.DeepEqual(b.(Snapshotter).SnapshotTags(), snap) {
		t.Error("churning one clone mutated a sibling clone")
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
	var nilSnap *TagSnapshot
	if nilSnap.Bytes() != 0 {
		t.Error("nil snapshot must report zero bytes")
	}
}

// sameSnap is reflect.DeepEqual for cache snapshots, without reflection.
func sameSnap(a, b CacheSnap) bool {
	return a.Ways == b.Ways && a.Tick == b.Tick && slices.Equal(a.Idx, b.Idx) &&
		slices.Equal(a.Tags, b.Tags) && slices.Equal(a.Dirty, b.Dirty) && slices.Equal(a.LastUse, b.LastUse)
}

// TestTagDeltaReplay: deltas journaled over one model and applied to a
// clone reproduce that model's SnapshotTags exactly — lines, dirty bits,
// LRU stamps and ticks — at every cut, in all four modes (the vector-cache
// and collapsing stores take the invalidate path). Before each cut the
// clone replays a prefix of the period's touches itself, as a parallel
// block simulates a window before it applies the period's delta. Every
// delta lists a slot at most once, and Stop leaves no journal behind.
func TestTagDeltaReplay(t *testing.T) {
	for _, mode := range []VectorMode{ModeConventional, ModeMultiAddress, ModeVectorCache, ModeCollapsing} {
		src := NewHierarchy(HierConfig{Width: 4, Mode: mode})
		warmChurn(src, 5)
		clone := src.NewFromSnapshot(src.SnapshotTags()).(*Hierarchy)
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
	if d := NewPerfect(1).StartJournal().Cut(); len(d.slots) != 0 {
		t.Errorf("Perfect journaled %d slots", len(d.slots))
	}
}
