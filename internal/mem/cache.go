package mem

// cacheArr is a set-associative tag array with LRU replacement.
type cacheArr struct {
	sets, ways int
	lineBits   uint
	setBits    uint // log2(sets): a line's set is its low setBits bits
	tags       []uint64
	valid      []bool
	dirty      []bool
	lastUse    []int64
	tick       int64
	jr         *Journal // non-nil while a TagJournal records changed slots
}

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
	n := sets * ways
	return &cacheArr{
		sets: sets, ways: ways, lineBits: lineBits, setBits: setBits,
		tags:    make([]uint64, n),
		valid:   make([]bool, n),
		dirty:   make([]bool, n),
		lastUse: make([]int64, n),
	}
}

func (c *cacheArr) line(addr uint64) uint64 { return addr >> c.lineBits }

func (c *cacheArr) index(addr uint64) (set int, tag uint64) {
	l := c.line(addr)
	return int(l & uint64(c.sets-1)), l >> c.setBits
}

// lookup probes the array; on hit it refreshes LRU and returns the way.
func (c *cacheArr) lookup(addr uint64, markDirty bool) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.tick++
			c.lastUse[base+w] = c.tick
			if markDirty {
				c.dirty[base+w] = true
			}
			if c.jr != nil {
				c.jr.Touch(base + w)
			}
			return true
		}
	}
	return false
}

// fill inserts the line for addr, returning the evicted line address and
// whether it was dirty (valid eviction only when wasValid).
func (c *cacheArr) fill(addr uint64, dirty bool) (evicted uint64, wasDirty, wasValid bool) {
	set, tag := c.index(addr)
	base := set * c.ways
	victim := base
	for w := 0; w < c.ways; w++ {
		if !c.valid[base+w] {
			victim = base + w
			break
		}
		if c.lastUse[base+w] < c.lastUse[victim] {
			victim = base + w
		}
	}
	if c.valid[victim] {
		oldLine := c.tags[victim]*uint64(c.sets) + uint64(set)
		evicted = oldLine << c.lineBits
		wasDirty = c.dirty[victim]
		wasValid = true
	}
	c.tick++
	c.tags[victim] = tag
	c.valid[victim] = true
	c.dirty[victim] = dirty
	c.lastUse[victim] = c.tick
	if c.jr != nil {
		c.jr.Touch(victim)
	}
	return
}

// invalidate drops the line containing addr if present, reporting whether a
// valid copy was actually removed.
func (c *cacheArr) invalidate(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	dropped := false
	for w := 0; w < c.ways; w++ {
		if c.valid[base+w] && c.tags[base+w] == tag {
			c.valid[base+w] = false
			c.dirty[base+w] = false
			dropped = true
			if c.jr != nil {
				c.jr.Touch(base + w)
			}
		}
	}
	return dropped
}

func (c *cacheArr) reset() {
	clear(c.valid)
	clear(c.dirty)
	clear(c.lastUse)
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
