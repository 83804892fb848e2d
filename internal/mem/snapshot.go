package mem

// Checkpoint support for parallel sampled simulation, on *Hierarchy, the one
// model with long-lived state. A worker replaying a detailed window needs a
// private hierarchy whose tag arrays look exactly as functional warming left
// them at the window's period boundary: every sampled run starts from empty
// arrays, and the deltas a TagJournal cuts at every period boundary roll a
// fresh hierarchy forward from one window to the next. Only the long-lived
// state is journaled: tags, valid/dirty bits, LRU stamps and the LRU tick.
// Timing resources (ports, banks, MSHRs, write buffer, DRAM cursors) are
// deliberately NOT journaled — each window re-anchors its cycle base on
// fresh resource state (ResetTiming), exactly as the serial sampled loop
// leaves drained cursors behind after a long skip span.

// CacheSnap is a sparse snapshot of one tag array: only the valid lines are
// recorded (slot index, tag, dirty bit, LRU stamp) plus the global LRU
// tick. Invalid slots carry no observable state — fill prefers the first
// invalid way and lookup/invalidate skip invalid entries — so the valid
// lines are the array's whole behaviour, in a size proportional to the
// working set, not the cache capacity.
type CacheSnap struct {
	Ways    int     // associativity: slot i belongs to set i/Ways
	Idx     []int32 // slot index (set*ways+way) of each valid line
	Tags    []uint64
	Dirty   []bool
	LastUse []int64 // LRU stamps: all 0, like Tick, in a direct-mapped array
	Tick    int64
}

// snapshot captures the array's valid lines.
func (c *cacheArr) snapshot() CacheSnap {
	s := CacheSnap{Ways: c.ways, Tick: c.tick}
	for i, e := range c.slots {
		if e.key&entryValid == 0 {
			continue
		}
		s.Idx = append(s.Idx, int32(i))
		s.Tags = append(s.Tags, e.key>>keyShift)
		s.Dirty = append(s.Dirty, e.key&entryDirty != 0)
		s.LastUse = append(s.LastUse, e.stamp)
	}
	return s
}

// bytes is the approximate in-memory size of the snapshot.
func (s *CacheSnap) bytes() int64 {
	return int64(len(s.Idx))*(4+8+1+8) + 8
}

// TagSnapshot is the complete long-lived state of a hierarchy.
type TagSnapshot struct {
	L1, L2 CacheSnap
}

// Bytes returns the approximate in-memory size of the snapshot.
func (t *TagSnapshot) Bytes() int64 { return t.L1.bytes() + t.L2.bytes() }

// Journal lists the slots of one table that changed since it was last
// reset, each slot once, in the order of its first change. The tag arrays
// keep one while a TagJournal records; any other table of long-lived state
// can keep one the same way.
type Journal struct {
	listed  []bool  // per slot: already in Touched
	Touched []int32 // changed slots, first change first
}

// NewJournal returns an empty journal over a table of n slots.
func NewJournal(n int) *Journal { return &Journal{listed: make([]bool, n)} }

// Touch records a change of slot i.
func (j *Journal) Touch(i int) {
	if !j.listed[i] {
		j.listed[i] = true
		j.Touched = append(j.Touched, int32(i))
	}
}

// Reset empties the journal, keeping its storage.
func (j *Journal) Reset() {
	for _, i := range j.Touched {
		j.listed[i] = false
	}
	j.Touched = j.Touched[:0]
}

// slotEntry is one tag-array slot as a period left it. meta packs, from
// the low bit, the slot index (slotBits, room for 128 times the L2's 8192
// slots), the valid and dirty bits, the array (0: L1, 1: L2) and the
// distance of the slot's LRU stamp below its array's tick at the cut. A
// valid slot the period touched was stamped during the period, so the
// distance is below the period's tick count, which the 41 bits left bound
// at about 2·10^12 touches; an invalid slot's stamp is never compared, so
// it is left at the tick.
type slotEntry struct {
	tag  uint64
	meta uint64
}

const (
	slotBits   = 20
	validBit   = entryValid << slotBits // an entry's valid and dirty bits, shifted
	dirtyBit   = entryDirty << slotBits
	arrayShift = slotBits + 2
	distShift  = arrayShift + 1
)

// TagDelta is what one period changed in a model's tag arrays: the final
// tag, valid and dirty bits and LRU stamp of every slot the period touched,
// and each array's LRU tick at its end. Applied to a model whose arrays
// held the journaled model's state at the period's start — or that state
// followed by any accesses to slots the period touched — it leaves the
// arrays exactly as the period did, stamps and ticks included.
type TagDelta struct {
	slots []slotEntry
	tick  [2]int64
}

// Bytes returns the approximate in-memory size of the delta: its slot
// entries, their slice header and the two ticks.
func (d *TagDelta) Bytes() int64 { return 16*int64(len(d.slots)) + 40 }

// apply writes the delta into the arrays it was journaled from.
func (d *TagDelta) apply(arrs [2]*cacheArr) {
	for _, e := range d.slots {
		a := e.meta >> arrayShift & 1
		c := arrs[a]
		c.slots[e.meta&(validBit-1)] = entry{
			key:   e.tag<<keyShift | e.meta>>slotBits&(entryValid|entryDirty),
			stamp: d.tick[a] - int64(e.meta>>distShift),
		}
	}
	for a, c := range arrs {
		c.tick = d.tick[a]
	}
}

// TagJournal records, period by period, which slots of a hierarchy's tag
// arrays change (see Hierarchy.StartJournal). Between Cut calls the
// hierarchy is used as usual; a slot is journaled at most once per period.
type TagJournal struct {
	arrs [2]*cacheArr
}

// Cut closes the current period: it returns the period's TagDelta and
// starts the next period empty. The delta is allocated at its exact size.
func (j *TagJournal) Cut() TagDelta {
	d := TagDelta{slots: make([]slotEntry, 0, len(j.arrs[0].jr.Touched)+len(j.arrs[1].jr.Touched))}
	for a, c := range j.arrs {
		d.tick[a] = c.tick
		for _, i := range c.jr.Touched {
			e := c.slots[i]
			meta := uint64(i) | uint64(a)<<arrayShift | e.key&(entryValid|entryDirty)<<slotBits
			if e.key&entryValid != 0 {
				meta |= uint64(c.tick-e.stamp) << distShift
			}
			d.slots = append(d.slots, slotEntry{tag: e.key >> keyShift, meta: meta})
		}
		c.jr.Reset()
	}
	return d
}

// Stop ends journaling; the hierarchy runs as if it had never journaled.
func (j *TagJournal) Stop() {
	for _, c := range j.arrs {
		c.jr = nil
	}
}

// SnapshotTags captures both cache levels' tag arrays.
func (h *Hierarchy) SnapshotTags() *TagSnapshot {
	return &TagSnapshot{L1: h.l1.snapshot(), L2: h.l2.arr.snapshot()}
}

// StartJournal starts recording which slots of both cache levels' tag
// arrays the hierarchy's accesses change, period by period, until the
// journal's Stop.
func (h *Hierarchy) StartJournal() *TagJournal {
	j := &TagJournal{arrs: [2]*cacheArr{h.l1, h.l2.arr}}
	for _, c := range j.arrs {
		c.jr = NewJournal(len(c.slots))
	}
	return j
}

// ApplyDelta writes a period's delta, journaled on a hierarchy of the same
// configuration, into the receiver's tag arrays.
func (h *Hierarchy) ApplyDelta(d *TagDelta) { d.apply([2]*cacheArr{h.l1, h.l2.arr}) }
