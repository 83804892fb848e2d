package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	mom "repro"
	"repro/internal/apps"
	"repro/internal/cpu"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
	"repro/internal/mem"
	"repro/internal/trace"
)

// layerProbe makes the traced run's per-layer calls for each unit it
// covers, every call inside a span, and keeps each call's fastest repeat
// under "<layer>|<unit or trace>".
type layerProbe struct {
	b    *bench
	trs  map[string]*trace.Trace                                        // the program's cached traces
	sp   mom.SampleSpec                                                 // the units' sample spec (disabled: exact)
	gold string                                                         // golden workload the unit documents belong to
	op   func(u unit, rec *recorder, parent int) (time.Duration, error) // the workload's own operation

	f       *fastest
	covered []unit
	seen    map[string]bool // covered unit IDs

	enc      map[string][]byte // encoded traces, for fresh copies
	accesses map[string]int    // memory-model calls on the unit's hierarchy
	touches  map[string]int    // warming touches of the unit's trace
}

func newLayerProbe(b *bench, trs map[string]*trace.Trace, sp mom.SampleSpec, gold string,
	op func(u unit, rec *recorder, parent int) (time.Duration, error)) *layerProbe {
	return &layerProbe{
		b: b, trs: trs, sp: sp, gold: gold, op: op,
		f: newFastest(), seen: map[string]bool{}, enc: map[string][]byte{},
		accesses: map[string]int{}, touches: map[string]int{},
	}
}

// The mom entry point, the timing-core call below it and the job path
// above it are repeated back to back per unit and pass: their differences
// are microseconds on runs of milliseconds, so each needs its fastest of
// several repeats. Short units repeat until overheadBudget is spent, up to
// maxOverheadReps times; keyReps does the same for the request key.
const (
	minOverheadReps = 2
	maxOverheadReps = 16
	overheadBudget  = 60 * time.Millisecond
	keyReps         = 5
)

// overheads times the mom entry point against the timing-core call below
// it and the job-request path above it. Each repeat runs the three in
// turn, alternating direction, so neither difference always pairs a first
// call with a second one. The entry point's cycles must match the timing
// core's, and the job document must match the golden.
func (p *layerProbe) overheads(u unit, tr *trace.Trace, cfg cpu.Config, parent int) error {
	b, rec := p.b, p.b.rec
	req := u.request(p.sp)
	var coreCycles, momCycles int64
	calls := []func() (time.Duration, error){
		func() (time.Duration, error) {
			var res cpu.Result
			var err error
			d := rec.timed("cpu.Sim.RunSampled", parent, func(int) {
				res, err = cpu.New(cfg, ownMemory(u)).RunSampled(tr.Reader(), maxInsts, cpuSpec(p.sp))
			})
			coreCycles = res.Cycles
			p.f.add("cpueq|"+u.ID, d)
			return d, err
		},
		func() (time.Duration, error) {
			var res mom.Result
			var err error
			d := rec.timed("mom.call", parent, func(int) { res, err = p.momCall(u) })
			momCycles = res.Cycles
			p.f.add("mom|"+u.ID, d)
			return d, err
		},
		func() (time.Duration, error) {
			var doc []byte
			var err error
			d := rec.timed("mom.RunJobRequest", parent, func(int) { doc, err = mom.RunJobRequest(context.Background(), req) })
			if err == nil {
				err = b.gold.checkDoc(p.gold, u.ID, doc)
			}
			b.op(err)
			p.f.add("job|"+u.ID, d)
			return d, nil
		},
	}
	var spent time.Duration
	for k := 0; k < maxOverheadReps && (k < minOverheadReps || spent < overheadBudget); k++ {
		for i := range calls {
			if k%2 == 1 {
				i = len(calls) - 1 - i
			}
			d, err := calls[i]()
			if err != nil {
				return fmt.Errorf("%s: %w", u.ID, err)
			}
			spent += d
		}
		if momCycles != coreCycles {
			return fmt.Errorf("%s: mom reports %d cycles, timing core %d", u.ID, momCycles, coreCycles)
		}
	}
	return nil
}

// probeHierarchy is the hierarchy a unit's hierarchy-level calls use: its
// own for Figure 7 units; for perfect-memory kernel units, the Figure 7
// organisation of its ISA (conventional, or multi-address for MOM) at the
// nearest width the hierarchy models.
func probeHierarchy(u unit) *mem.Hierarchy {
	if h, ok := u.hierarchy(); ok {
		return h
	}
	mode := mem.ModeConventional
	if u.ISA == mom.MOM {
		mode = mem.ModeMultiAddress
	}
	return mem.NewHierarchy(mem.HierConfig{Width: max(4, u.Width), Mode: mode})
}

// ownMemory is a fresh instance of the unit's own memory model.
func ownMemory(u unit) mem.Model {
	switch u.Mem {
	case "perfect":
		return mem.NewPerfect(1)
	case "perfect50":
		return mem.NewPerfect(50)
	}
	h, _ := u.hierarchy()
	return h
}

// replayModes are the hierarchy organisations a unit's hierarchy stream is
// replayed into: every organisation Figure 7 pairs with its ISA.
func replayModes(u unit) []string {
	if u.ISA == mom.MOM {
		return []string{"multi", "vector", "collapsing"}
	}
	return []string{"conv"}
}

// buildAll times every kernel and application program generator.
func (p *layerProbe) buildAll(parent int) {
	rec := p.b.rec
	for _, k := range kernels.All(kernels.Scale(scale)) {
		for _, e := range isa.AllExts {
			d := rec.timed("kernels.Build "+k.Name+"/"+e.String(), parent, func(int) { k.Build(e) })
			p.f.add("kbuild|"+k.Name+"/"+e.String(), d)
		}
	}
	for _, a := range apps.All(apps.Scale(scale)) {
		for _, e := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMOM} {
			d := rec.timed("apps.Build "+a.Name+"/"+e.String(), parent, func(int) { a.Build(e) })
			p.f.add("abuild|"+a.Name+"/"+e.String(), d)
		}
	}
}

// probeTrace makes the per-trace calls: emulation, capture, encoding and
// the two replay drains.
func (p *layerProbe) probeTrace(u unit, parent int) error {
	rec, id := p.b.rec, u.traceID()
	tr := p.trs[id]
	prog := tr.Program()
	var n uint64
	var err error
	d := rec.timed("emu.Machine.Run", parent, func(int) { n, err = emu.New(prog).Run(maxInsts) })
	if err != nil || n != tr.Records() {
		return fmt.Errorf("%s: emulation ran %d instructions, trace has %d: %v", id, n, tr.Records(), err)
	}
	p.f.add("emu|"+id, d)
	var fresh *trace.Trace
	d = rec.timed("trace.Capture", parent, func(int) { fresh, err = trace.Capture(emu.New(prog), maxInsts, 0) })
	if err != nil {
		return fmt.Errorf("%s: capture: %w", id, err)
	}
	p.f.add("capture|"+id, d)
	var buf bytes.Buffer
	buf.Grow(int(fresh.EncodedSize()))
	d = rec.timed("trace.WriteTo", parent, func(int) { _, err = fresh.WriteTo(&buf) })
	if err != nil {
		return fmt.Errorf("%s: encode: %w", id, err)
	}
	p.f.add("encode|"+id, d)
	if _, ok := p.enc[id]; !ok {
		p.enc[id] = buf.Bytes()
	}
	d = rec.timed("trace.Reader.Next/drain", parent, func(int) {
		r := tr.Reader()
		for {
			if _, ok := r.Next(); !ok {
				break
			}
		}
	})
	p.f.add("next|"+id, d)
	d = rec.timed("trace.Reader.WarmNext/drain", parent, func(int) { tr.Reader().WarmNext(tr.Records(), nopSink{}) })
	p.f.add("warm|"+id, d)
	return nil
}

// momCall is the unit through the public entry point on the cached trace,
// with the probe's spec.
func (p *layerProbe) momCall(u unit) (mom.Result, error) {
	if u.App {
		return mom.RunAppSampled(u.Name, u.ISA, u.Width, u.model(), scale, p.sp)
	}
	return mom.RunKernelSampled(u.Name, u.ISA, u.Width, u.model(), scale, p.sp)
}

// probeUnit makes every per-unit layer call once.
func (p *layerProbe) probeUnit(u unit, pass int, tracesDone map[string]bool) error {
	b, rec := p.b, p.b.rec
	var perr error
	rec.timed("unit "+u.ID, 0, func(parent int) {
		if !tracesDone[u.traceID()] {
			tracesDone[u.traceID()] = true
			if perr = p.probeTrace(u, parent); perr != nil {
				return
			}
		}
		tr := p.trs[u.traceID()]
		cfg := cpu.NewConfig(u.Width, u.ext())
		first := !p.seen[u.ID]
		if first && p.sp.Enabled() {
			// Fill the cached trace's checkpoint library, so the mom call and
			// the timing-core call below both time the memoised path.
			if _, perr = p.momCall(u); perr != nil {
				return
			}
		}

		// The workload's own operation, untraced and traced, in
		// alternating order so neither always runs second.
		for k := 0; k < 2; k++ {
			if (k+pass)%2 == 0 {
				d, err := p.op(u, nil, 0)
				b.op(err)
				p.f.add("e2e|"+u.ID, d)
			} else {
				d, err := p.op(u, rec, parent)
				b.op(err)
				p.f.add("e2e.traced|"+u.ID, d)
			}
		}

		if perr = p.overheads(u, tr, cfg, parent); perr != nil {
			return
		}
		req := u.request(p.sp)
		var err error
		var d time.Duration
		for k := 0; k < keyReps; k++ {
			d = rec.timed("mom.JobRequest.Key", parent, func(int) { _, err = req.Key() })
			p.f.add("key|"+u.ID, d)
		}

		// Timing core on perfect memory and on the hierarchy.
		d = rec.timed("cpu.Sim.Run/perfect", parent, func(int) { _, err = cpu.New(cfg, mem.NewPerfect(1)).Run(tr.Reader(), maxInsts) })
		if err != nil {
			perr = err
			return
		}
		p.f.add("perfect|"+u.ID, d)
		d = rec.timed("cpu.Sim.Run/hierarchy", parent, func(int) { _, err = cpu.New(cfg, probeHierarchy(u)).Run(tr.Reader(), maxInsts) })
		if err != nil {
			perr = err
			return
		}
		p.f.add("hier|"+u.ID, d)

		// The memory layer alone: the unit's call streams, recorded
		// through a wrapper, replayed into fresh models. Streams are
		// recorded anew each pass and dropped after use, so memory holds
		// one unit's streams at a time.
		hierRec := &memRecorder{Model: probeHierarchy(u)}
		ownRec := hierRec // a Figure 7 unit's own memory is its hierarchy
		if _, ok := u.hierarchy(); !ok {
			ownRec = &memRecorder{Model: ownMemory(u)}
		}
		rec.timed("cpu.Sim.Run/recording", parent, func(int) {
			_, err = cpu.New(cfg, hierRec).Run(tr.Reader(), maxInsts)
			if err == nil && ownRec != hierRec {
				_, err = cpu.New(cfg, ownRec).Run(tr.Reader(), maxInsts)
			}
		})
		if err != nil {
			perr = err
			return
		}
		p.accesses[u.ID] = len(hierRec.calls)
		for _, m := range replayModes(u) {
			fresh := mem.NewHierarchy(mem.HierConfig{Width: max(4, u.Width), Mode: hierModes[m]})
			d = rec.timed("mem.replay/"+m, parent, func(int) { replayMem(fresh, hierRec.calls) })
			p.f.add("mem."+m+"|"+u.ID, d)
		}
		own := ownMemory(u)
		d = rec.timed("mem.replay/own", parent, func(int) { replayMem(own, ownRec.calls) })
		p.f.add("memown|"+u.ID, d)
		tc := &touchRecorder{}
		rec.timed("trace.Reader.WarmNext/recording", parent, func(int) { tr.Reader().WarmNext(tr.Records(), tc) })
		p.touches[u.ID] = len(tc.touches)
		wh := probeHierarchy(u)
		d = rec.timed("mem.Warmer/replay", parent, func(int) { replayTouches(wh, tc.touches) })
		p.f.add("touch|"+u.ID, d)

		// Sampled three ways on the hierarchy: from an empty checkpoint
		// library, from the memoised one, and serially.
		var copyTr *trace.Trace
		rec.timed("trace.Decode", parent, func(int) {
			copyTr, err = trace.Decode(bytes.NewReader(p.enc[u.traceID()]), tr.Program())
		})
		if err != nil {
			perr = err
			return
		}
		sp := cpuSpec(sampledSpec())
		var sres cpu.Result
		d = rec.timed("cpu.Sim.RunSampled/fresh", parent, func(int) {
			sres, err = cpu.New(cfg, probeHierarchy(u)).RunSampled(copyTr.Reader(), maxInsts, sp)
		})
		if err != nil {
			perr = err
			return
		}
		p.f.add("fresh|"+u.ID, d)
		var memo, serial cpu.Result
		d = rec.timed("cpu.Sim.RunSampled/memoised", parent, func(int) {
			memo, err = cpu.New(cfg, probeHierarchy(u)).RunSampled(copyTr.Reader(), maxInsts, sp)
		})
		p.f.add("memo|"+u.ID, d)
		serialSpec := sp
		serialSpec.Parallelism = 1
		if err == nil {
			d = rec.timed("cpu.Sim.RunSampled/serial", parent, func(int) {
				serial, err = cpu.New(cfg, probeHierarchy(u)).RunSampled(tr.Reader(), maxInsts, serialSpec)
			})
			p.f.add("serial|"+u.ID, d)
		}
		if err == nil && (memo.Cycles != sres.Cycles || serial.Cycles != sres.Cycles) {
			err = fmt.Errorf("%s: sampled runs disagree: fresh %d, memoised %d, serial %d cycles",
				u.ID, sres.Cycles, memo.Cycles, serial.Cycles)
		}
		if err != nil {
			perr = err
			return
		}
		if first {
			p.seen[u.ID] = true
			p.covered = append(p.covered, u)
		}
	})
	return perr
}

// allocRuns is how many perfect-memory runs per unit cpu.allocs_per_run
// takes the fewest allocations of.
const allocRuns = 3

// facts sets the per-layer counts, ratios and sizes. They are taken after
// the time-limited passes, over a fixed set that depends neither on the
// seed nor on host speed: every trace the workload replays, and the first
// unit of each trace in the workload's own unit order. The timed rates stay
// over the units the passes covered.
func (p *layerProbe) facts(units []unit) error {
	b, rec := p.b, p.b.rec
	reps := traceSet(units)
	var recs, ram, file float64
	for _, u := range reps {
		tr := p.trs[u.traceID()]
		recs += float64(tr.Records())
		ram += float64(tr.Bytes())
		file += float64(tr.EncodedSize())
	}
	b.set("trace.ram_bytes_per_rec", per(ram, recs), "B")
	b.set("trace.file_bytes_per_rec", per(file, recs), "B")

	var err error
	var accesses float64
	var l1Hits, l1Lookups, l2Hits, l2Lookups uint64
	var snapBytes, allocs, detail []float64
	replays := mom.ReadTraceStats().Replays
	var at string
	took := rec.timed("facts", 0, func(parent int) {
		for _, u := range reps {
			at = u.ID
			tr := p.trs[u.traceID()]
			cfg := cpu.NewConfig(u.Width, u.ext())
			rec.timed("mom.call", parent, func(int) { _, err = p.momCall(u) })
			if err != nil {
				return
			}
			// The fewest allocations of a few runs: the timing core pools its
			// state, and a collection between runs empties the pool.
			var fewest uint64
			for k := 0; k < allocRuns; k++ {
				var before, after runtime.MemStats
				rec.timed("cpu.Sim.Run/perfect", parent, func(int) {
					runtime.ReadMemStats(&before)
					_, err = cpu.New(cfg, mem.NewPerfect(1)).Run(tr.Reader(), maxInsts)
					runtime.ReadMemStats(&after)
				})
				if err != nil {
					return
				}
				if n := after.Mallocs - before.Mallocs; k == 0 || n < fewest {
					fewest = n
				}
			}
			allocs = append(allocs, float64(fewest))
			h := probeHierarchy(u)
			mc := &memCounter{Model: h}
			var res cpu.Result
			rec.timed("cpu.Sim.Run/hierarchy", parent, func(int) { res, err = cpu.New(cfg, mc).Run(tr.Reader(), maxInsts) })
			if err != nil {
				return
			}
			accesses += float64(mc.calls)
			l1Hits += res.Mem.L1Hits
			l1Lookups += res.Mem.L1Lookups
			l2Hits += res.Mem.L2Hits
			l2Lookups += res.Mem.L2Lookups
			snapBytes = append(snapBytes, float64(h.SnapshotTags().Bytes()))
			sp := cpuSpec(sampledSpec())
			sp.Parallelism = 1
			rec.timed("cpu.Sim.RunSampled/serial", parent, func(int) {
				res, err = cpu.New(cfg, probeHierarchy(u)).RunSampled(tr.Reader(), maxInsts, sp)
			})
			if err != nil {
				return
			}
			if s := res.Sampled; s != nil && s.TotalInsts > 0 {
				detail = append(detail, float64(s.MeasuredInsts+s.WarmupInsts)/float64(s.TotalInsts))
			}
		}
	})
	if err != nil {
		return fmt.Errorf("facts: %s: %w", at, err)
	}
	b.logf("facts: over %d traces and the first unit of each, in %.1f s", len(reps), took.Seconds())
	b.set("mom.replays", float64(mom.ReadTraceStats().Replays-replays), "count")
	b.set("cpu.allocs_per_run", mean(allocs), "count")
	b.set("cpu.detail_share", mean(detail), "ratio")
	b.set("mem.accesses", per(accesses, recs), "1/rec")
	b.set("mem.l1_hit_ratio", per(float64(l1Hits), float64(l1Lookups)), "ratio")
	b.set("mem.l2_hit_ratio", per(float64(l2Hits), float64(l2Lookups)), "ratio")
	b.set("mem.snapshot_mb", mean(snapBytes)/(1<<20), "MB")
	return nil
}

// run covers units in seeded order until half the time is gone, then
// repeats passes over the covered units until until.
func (p *layerProbe) run(units []unit, start, until time.Time) error {
	half := start.Add(until.Sub(start) / 2)
	rec := p.b.rec
	for pass := 0; ; pass++ {
		rec.timed("build", 0, func(id int) { p.buildAll(id) })
		done := map[string]bool{}
		list := units
		if pass > 0 {
			list = p.covered
		}
		list = permuted(p.b.rng, list)
		if pass == 0 {
			list = isaMixFirst(list)
		}
		for _, u := range list {
			now := time.Now()
			// The first pass covers at least the two units isaMixFirst
			// put in front.
			if (pass == 0 && len(p.covered) >= 2 && !now.Before(half)) || (pass > 0 && !now.Before(until)) {
				break
			}
			if err := p.probeUnit(u, pass, done); err != nil {
				return err
			}
			p.b.runHostRef()
		}
		if !time.Now().Before(until) {
			return nil
		}
	}
}

// checkRest runs the workload's operation once on every unit the probe did
// not cover, so a traced run too checks every unit against the golden.
func (p *layerProbe) checkRest(units []unit) {
	for _, u := range units {
		if !p.seen[u.ID] {
			_, err := p.op(u, p.b.rec, 0)
			p.b.op(err)
		}
	}
}

// isaMixFirst moves the first MOM unit and the first unit of another ISA to
// the front, so even a short traced run replays streams into every cache
// organisation.
func isaMixFirst(us []unit) []unit {
	out := make([]unit, 0, len(us))
	var rest []unit
	haveMOM, haveOther := false, false
	for _, u := range us {
		isMOM := u.ISA == mom.MOM
		switch {
		case isMOM && !haveMOM:
			haveMOM = true
			out = append(out, u)
		case !isMOM && !haveOther:
			haveOther = true
			out = append(out, u)
		default:
			rest = append(rest, u)
		}
	}
	return append(out, rest...)
}
