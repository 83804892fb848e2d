package mem

// cacheArr is a set-associative tag array with LRU replacement. Each slot
// is one entry; a set's ways are adjacent, so a 2-way set of 16-byte
// entries sits in one host cache line. A direct-mapped array (ways == 1)
// keeps no LRU stamps and no tick: its one way is never chosen by stamp,
// so a hit there changes nothing and journals nothing.
type cacheArr struct {
	sets, ways int
	lineBits   uint
	setBits    uint // log2(sets): a line's set is its low setBits bits
	slots      []entry
	tick       int64
	jr         *Journal // non-nil while a TagJournal records changed slots
}

// entry is one tag-array slot: key holds the tag above the dirty and valid
// bits (tag<<keyShift | entryDirty | entryValid), stamp the LRU stamp.
type entry struct {
	key   uint64
	stamp int64
}

const (
	entryValid = 1
	entryDirty = 2
	keyShift   = 2
)

func newCacheArr(sizeBytes, lineBytes, ways int) *cacheArr {
	lineBits := uint(0)
	for 1<<lineBits < lineBytes {
		lineBits++
	}
	sets := sizeBytes / lineBytes / ways
	if sets < 1 || sets&(sets-1) != 0 {
		panic("mem: cache sets must be a positive power of two")
	}
	setBits := uint(0)
	for 1<<setBits < sets {
		setBits++
	}
	return &cacheArr{
		sets: sets, ways: ways, lineBits: lineBits, setBits: setBits,
		slots: make([]entry, sets*ways),
	}
}

func (c *cacheArr) line(addr uint64) uint64 { return addr >> c.lineBits }

// index returns addr's set and the key a valid, clean copy of its line has.
func (c *cacheArr) index(addr uint64) (set int, key uint64) {
	l := c.line(addr)
	return int(l & uint64(c.sets-1)), l>>c.setBits<<keyShift | entryValid
}

// lookup probes the array; on a hit it refreshes LRU (set-associative
// arrays only), marks the line dirty if asked, and reports true.
func (c *cacheArr) lookup(addr uint64, markDirty bool) bool {
	set, key := c.index(addr)
	if c.ways == 1 {
		e := &c.slots[set]
		if e.key&^entryDirty != key {
			return false
		}
		if markDirty && e.key&entryDirty == 0 {
			e.key |= entryDirty
			if c.jr != nil {
				c.jr.Touch(set)
			}
		}
		return true
	}
	base := set * c.ways
	for i := base; i < base+c.ways; i++ {
		e := &c.slots[i]
		if e.key&^entryDirty == key {
			c.tick++
			e.stamp = c.tick
			if markDirty {
				e.key |= entryDirty
			}
			if c.jr != nil {
				c.jr.Touch(i)
			}
			return true
		}
	}
	return false
}

// holds reports whether a direct-mapped array holds addr's line: what
// lookup(addr, false) reports there, where it changes nothing.
func (c *cacheArr) holds(addr uint64) bool {
	set, key := c.index(addr)
	return c.slots[set].key&^entryDirty == key
}

// fill inserts the line for addr, returning the evicted line address and
// whether it was dirty (valid eviction only when wasValid).
func (c *cacheArr) fill(addr uint64, dirty bool) (evicted uint64, wasDirty, wasValid bool) {
	set, key := c.index(addr)
	victim := set
	if c.ways > 1 {
		base := set * c.ways
		victim = base
		for i := base; i < base+c.ways; i++ {
			if c.slots[i].key&entryValid == 0 {
				victim = i
				break
			}
			if c.slots[i].stamp < c.slots[victim].stamp {
				victim = i
			}
		}
		c.tick++
		c.slots[victim].stamp = c.tick
	}
	e := &c.slots[victim]
	if e.key&entryValid != 0 {
		evicted = (e.key>>keyShift<<c.setBits | uint64(set)) << c.lineBits
		wasDirty = e.key&entryDirty != 0
		wasValid = true
	}
	if dirty {
		key |= entryDirty
	}
	e.key = key
	if c.jr != nil {
		c.jr.Touch(victim)
	}
	return
}

// invalidate drops the line containing addr if present, reporting whether a
// valid copy was actually removed.
func (c *cacheArr) invalidate(addr uint64) bool {
	set, key := c.index(addr)
	base := set * c.ways
	dropped := false
	for i := base; i < base+c.ways; i++ {
		if c.slots[i].key&^entryDirty == key {
			c.slots[i].key = 0
			dropped = true
			if c.jr != nil {
				c.jr.Touch(i)
			}
		}
	}
	return dropped
}

func (c *cacheArr) reset() {
	clear(c.slots)
	c.tick = 0
}

// resource models a small pool of slots each busy until a given cycle
// (MSHRs, write-buffer entries).
type resource struct {
	busy []int64
}

func newResource(n int) *resource { return &resource{busy: make([]int64, n)} }

// take reserves the earliest-free slot from cycle t, busy until done is
// later stored by the caller via set. It returns the slot index and the
// earliest start cycle.
func (r *resource) take(t int64) (slot int, start int64) {
	best, bb := 0, r.busy[0]
	for i, b := range r.busy {
		if b < bb {
			bb, best = b, i
		}
	}
	if bb > t {
		t = bb
	}
	return best, t
}

func (r *resource) set(slot int, until int64) { r.busy[slot] = until }

func (r *resource) reset() {
	for i := range r.busy {
		r.busy[i] = 0
	}
}
