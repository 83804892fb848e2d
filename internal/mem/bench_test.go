package mem_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// Call kinds of the mem.Model interface, as a recorded stream lists them.
const (
	callLoad = iota
	callStore
	callLoadVector
	callStoreVector
	numCallKinds
)

var callKindNames = [numCallKinds]string{"Load", "Store", "LoadVector", "StoreVector"}

// memCall is one call the timing core made into its memory model: n is the
// access size of a scalar call and the element count of a vector one.
type memCall struct {
	kind   uint8
	n      int32
	rate   int32
	cycle  int64
	addr   uint64
	stride int64
}

// elems is how many elements the call moves: one for a scalar access.
func (c *memCall) elems() int {
	if c.kind == callLoadVector || c.kind == callStoreVector {
		return int(c.n)
	}
	return 1
}

// callRecorder wraps a memory model and records the calls made into it.
type callRecorder struct {
	mem.Model
	calls []memCall
}

func (r *callRecorder) Load(cycle int64, addr uint64, size int) int64 {
	r.calls = append(r.calls, memCall{kind: callLoad, cycle: cycle, addr: addr, n: int32(size)})
	return r.Model.Load(cycle, addr, size)
}

func (r *callRecorder) Store(cycle int64, addr uint64, size int) int64 {
	r.calls = append(r.calls, memCall{kind: callStore, cycle: cycle, addr: addr, n: int32(size)})
	return r.Model.Store(cycle, addr, size)
}

func (r *callRecorder) LoadVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	r.calls = append(r.calls, memCall{kind: callLoadVector, cycle: cycle, addr: base, stride: stride, n: int32(n), rate: int32(rate)})
	return r.Model.LoadVector(cycle, base, stride, n, rate)
}

func (r *callRecorder) StoreVector(cycle int64, base uint64, stride int64, n, rate int) int64 {
	r.calls = append(r.calls, memCall{kind: callStoreVector, cycle: cycle, addr: base, stride: stride, n: int32(n), rate: int32(rate)})
	return r.Model.StoreVector(cycle, base, stride, n, rate)
}

var replaySink int64

// replayCalls drives a recorded call stream into m.
func replayCalls(m mem.Model, calls []memCall) {
	var acc int64
	for i := range calls {
		c := &calls[i]
		switch c.kind {
		case callLoad:
			acc += m.Load(c.cycle, c.addr, int(c.n))
		case callStore:
			acc += m.Store(c.cycle, c.addr, int(c.n))
		case callLoadVector:
			acc += m.LoadVector(c.cycle, c.addr, c.stride, int(c.n), int(c.rate))
		case callStoreVector:
			acc += m.StoreVector(c.cycle, c.addr, c.stride, int(c.n), int(c.rate))
		}
	}
	replaySink += acc
}

// BenchmarkHierarchy is the memory model's layer row, split by call kind.
// For each cache organisation it records the call stream of one Figure 7
// point (mpeg2decode at bench scale on the 4-way machine: Alpha on the
// conventional hierarchy, MOM on the three MOM organisations) through a
// wrapper around the model, then replays it into fresh hierarchies. The
// "all" row replays the whole stream; each kind's row replays only that
// kind's calls, in stream order, so its cache contents differ from the
// full run's. Every row reports ns per call and ns per element (a scalar
// call moves one element, a vector call VL of them).
//
//	go test -run '^$' -bench BenchmarkHierarchy -count 5 ./internal/mem
func BenchmarkHierarchy(b *testing.B) {
	app, err := apps.ByName("mpeg2decode", apps.ScaleBench)
	if err != nil {
		b.Fatal(err)
	}
	traces := map[isa.Ext]*trace.Trace{}
	for _, c := range []struct {
		name string
		ext  isa.Ext
		mode mem.VectorMode
	}{
		{"conv", isa.ExtAlpha, mem.ModeConventional},
		{"multi", isa.ExtMOM, mem.ModeMultiAddress},
		{"vector", isa.ExtMOM, mem.ModeVectorCache},
		{"collapsing", isa.ExtMOM, mem.ModeCollapsing},
	} {
		tr := traces[c.ext]
		if tr == nil {
			if tr, err = trace.Capture(emu.New(app.Build(c.ext)), 50_000_000, 0); err != nil {
				b.Fatal(err)
			}
			traces[c.ext] = tr
		}
		hc := mem.HierConfig{Width: 4, Mode: c.mode}
		rec := &callRecorder{Model: mem.NewHierarchy(hc)}
		if _, err := cpu.New(cpu.NewConfig(4, c.ext), rec).Run(tr.Reader(), tr.Records()); err != nil {
			b.Fatal(err)
		}
		var byKind [numCallKinds][]memCall
		for _, call := range rec.calls {
			byKind[call.kind] = append(byKind[call.kind], call)
		}
		benchReplay(b, c.name+"/all", hc, rec.calls)
		for k, calls := range byKind {
			if len(calls) > 0 {
				benchReplay(b, c.name+"/"+callKindNames[k], hc, calls)
			}
		}
	}
}

// benchReplay times replays of calls into fresh hierarchies.
func benchReplay(b *testing.B, name string, hc mem.HierConfig, calls []memCall) {
	elems := 0
	for i := range calls {
		elems += calls[i].elems()
	}
	b.Run(name, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			h := mem.NewHierarchy(hc)
			b.StartTimer()
			replayCalls(h, calls)
		}
		ns := b.Elapsed().Nanoseconds()
		b.ReportMetric(float64(ns)/float64(b.N*len(calls)), "ns/call")
		b.ReportMetric(float64(ns)/float64(b.N*elems), "ns/elem")
	})
}
