package main

import "repro/internal/mem"

// memCall is one call the timing core made into its memory model.
type memCall struct {
	kind   uint8 // callLoad, callStore, callLoadVec, callStoreVec
	size   int32 // scalar size, or element count for vectors
	rate   int32
	cycle  int64
	addr   uint64
	stride int64
}

const (
	callLoad uint8 = iota
	callStore
	callLoadVec
	callStoreVec
)

// memRecorder wraps a memory model and records the call stream, so the
// stream can be replayed into a fresh model to time the memory layer apart
// from the core.
type memRecorder struct {
	mem.Model
	calls []memCall
}

func (r *memRecorder) Load(cycle int64, addr uint64, size int) int64 {
	r.calls = append(r.calls, memCall{kind: callLoad, cycle: cycle, addr: addr, size: int32(size)})
	return r.Model.Load(cycle, addr, size)
}

func (r *memRecorder) Store(cycle int64, addr uint64, size int) int64 {
	r.calls = append(r.calls, memCall{kind: callStore, cycle: cycle, addr: addr, size: int32(size)})
	return r.Model.Store(cycle, addr, size)
}

func (r *memRecorder) LoadVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	r.calls = append(r.calls, memCall{kind: callLoadVec, cycle: cycle, addr: base, stride: stride, size: int32(n), rate: int32(rate)})
	return r.Model.LoadVector(cycle, base, stride, n, rate)
}

func (r *memRecorder) StoreVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	r.calls = append(r.calls, memCall{kind: callStoreVec, cycle: cycle, addr: base, stride: stride, size: int32(n), rate: int32(rate)})
	return r.Model.StoreVector(cycle, base, stride, n, rate)
}

// memCounter wraps a memory model and counts the calls made into it.
type memCounter struct {
	mem.Model
	calls int
}

func (c *memCounter) Load(cycle int64, addr uint64, size int) int64 {
	c.calls++
	return c.Model.Load(cycle, addr, size)
}

func (c *memCounter) Store(cycle int64, addr uint64, size int) int64 {
	c.calls++
	return c.Model.Store(cycle, addr, size)
}

func (c *memCounter) LoadVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	c.calls++
	return c.Model.LoadVector(cycle, base, stride, n, rate)
}

func (c *memCounter) StoreVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	c.calls++
	return c.Model.StoreVector(cycle, base, stride, n, rate)
}

// memReplaySink keeps replayed results live.
var memReplaySink int64

// replayMem drives a recorded call stream into m.
func replayMem(m mem.Model, calls []memCall) {
	var acc int64
	for i := range calls {
		c := &calls[i]
		switch c.kind {
		case callLoad:
			acc += m.Load(c.cycle, c.addr, int(c.size))
		case callStore:
			acc += m.Store(c.cycle, c.addr, int(c.size))
		case callLoadVec:
			acc += m.LoadVector(c.cycle, c.addr, c.stride, int(c.size), int(c.rate))
		case callStoreVec:
			acc += m.StoreVector(c.cycle, c.addr, c.stride, int(c.size), int(c.rate))
		}
	}
	memReplaySink += acc
}

// warmTouch is one functional-warming touch a trace's fast-forward feeds
// the memory model.
type warmTouch struct {
	vector, store bool
	n             int32
	addr          uint64
	stride        int64
}

// touchRecorder is a trace.WarmSink that records the memory touches and
// drops branch outcomes.
type touchRecorder struct{ touches []warmTouch }

func (t *touchRecorder) WarmBranch(int, bool) {}

func (t *touchRecorder) WarmScalar(ea uint64, size int, store bool) {
	t.touches = append(t.touches, warmTouch{store: store, n: int32(size), addr: ea})
}

func (t *touchRecorder) WarmVector(ea uint64, stride int64, nelem int, store bool) {
	t.touches = append(t.touches, warmTouch{vector: true, store: store, n: int32(nelem), addr: ea, stride: stride})
}

// nopSink is a trace.WarmSink that discards everything, so a WarmNext drain
// times the trace decoder alone.
type nopSink struct{}

func (nopSink) WarmBranch(int, bool)                {}
func (nopSink) WarmScalar(uint64, int, bool)        {}
func (nopSink) WarmVector(uint64, int64, int, bool) {}

// replayTouches drives recorded warming touches into w.
func replayTouches(w mem.Warmer, ts []warmTouch) {
	for i := range ts {
		t := &ts[i]
		switch {
		case t.vector && t.store:
			w.WarmStoreVector(t.addr, t.stride, int(t.n))
		case t.vector:
			w.WarmLoadVector(t.addr, t.stride, int(t.n))
		case t.store:
			w.WarmStore(t.addr, int(t.n))
		default:
			w.WarmLoad(t.addr, int(t.n))
		}
	}
}
