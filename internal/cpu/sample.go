package cpu

// SMARTS-style sampled simulation (Wunderlich et al., ISCA 2003 — see
// EXPERIMENTS.md): the dynamic instruction stream is split into fixed-size
// periods; the head of each period is detailed-simulated (a warmup prefix
// whose measurements are discarded, then a measured interval), and the tail
// is fast-forwarded through a functional-warming path that updates only
// long-lived microarchitectural state — branch predictor, BTB and cache tag
// arrays (mem.Warmer) — at trace-replay speed. The per-interval IPCs give
// both the estimate and its standard error via the usual interval-variance
// formula.

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// SampleSpec configures sampled simulation. All counts are dynamic
// instructions. Each period of Period instructions runs Warmup detailed
// (discarded) instructions, then Interval detailed measured instructions,
// then fast-forwards the remaining Period-Warmup-Interval through the
// functional-warming path. A zero Interval disables sampling entirely.
type SampleSpec struct {
	Period   uint64
	Warmup   uint64
	Interval uint64

	// Parallelism is the number of workers that execute detailed windows
	// concurrently through the two-phase checkpoint pipeline (see
	// runSampledParallel). 0 and 1 both mean serial. The knob never changes
	// results: the parallel path is bit-identical to the serial loop, and
	// RunSampled silently falls back to serial whenever the preconditions
	// (recorded trace at position zero, snapshottable memory model, no
	// observer, a long enough skip span) do not hold.
	Parallelism int
}

// Enabled reports whether the spec actually samples.
func (sp SampleSpec) Enabled() bool { return sp.Interval != 0 }

// Validate checks the spec's internal consistency.
func (sp SampleSpec) Validate() error {
	if sp.Parallelism < 0 {
		return fmt.Errorf("cpu: negative sample parallelism %d", sp.Parallelism)
	}
	if !sp.Enabled() {
		if sp.Period != 0 || sp.Warmup != 0 {
			return errors.New("cpu: sample spec without a measured interval")
		}
		return nil
	}
	if sp.Period <= sp.Warmup+sp.Interval {
		return fmt.Errorf("cpu: sample period %d must exceed warmup %d + interval %d",
			sp.Period, sp.Warmup, sp.Interval)
	}
	return nil
}

// Sampled summarises how a sampled run covered the stream and how good the
// IPC estimate is.
type Sampled struct {
	Spec          SampleSpec
	Intervals     int    // measured detailed windows
	MeasuredInsts uint64 // instructions inside measured intervals
	WarmupInsts   uint64 // detailed-simulated but discarded
	SkippedInsts  uint64 // fast-forwarded through functional warming
	TotalInsts    uint64 // measured + warmup + skipped
	IPCMean       float64
	IPCStdErr     float64 // stderr of IPCMean over the measured intervals
}

// Coverage is the measured fraction of the dynamic instruction stream.
func (s *Sampled) Coverage() float64 {
	if s.TotalInsts == 0 {
		return 0
	}
	return float64(s.MeasuredInsts) / float64(s.TotalInsts)
}

// startWindow re-anchors every transient pipeline structure at cycle base
// for a fresh detailed window, preserving the long-lived state (predictor,
// BTB — and the memory model's tag arrays, which live outside runState).
// base continues the run's cycle axis monotonically so the memory model's
// busy-until cursors (ports, MSHRs, DRAM channel) stay meaningful.
func (rs *runState) startWindow(cfg *Config, base int64) {
	clear(rs.intUnits)
	clear(rs.fpUnits)
	clear(rs.medUnits)
	clear(rs.ports)
	rs.dispatchSlots = slots{width: cfg.Width}
	rs.commitSlots = slots{width: cfg.Width}
	rs.issueSlots.reset(base)
	clear(rs.robRing)
	rs.robHead = 0
	clear(rs.lsqRing)
	rs.lsqHead = 0
	for k := range rs.rename {
		clear(rs.rename[k].commits)
		rs.rename[k].head = 0
	}
	clear(rs.lastWriter[:])
	rs.stores.reset()
	rs.fetchCycle, rs.lastDispatch, rs.lastCommit = base, base, base-1
	rs.fetchUsed = 0
	rs.profFrontier, rs.redirectCycle = base-1, -1
}

// warmSink adapts the run's predictor/BTB/memory state to trace.WarmSink
// for the bulk fast-forward path. Its warming effects are identical to the
// generic warmSpan loop below, record for record.
type warmSink struct {
	rs      *runState
	statics []staticInst
	w       mem.Warmer // nil when the memory model cannot warm
}

func (k *warmSink) WarmBranch(si int, taken bool) {
	if !k.statics[si].isBR {
		k.rs.pred.update(si, taken)
	}
	if taken {
		k.rs.targets.insert(si)
	}
}

func (k *warmSink) WarmScalar(ea uint64, size int, store bool) {
	if k.w == nil {
		return
	}
	if store {
		k.w.WarmStore(ea, size)
	} else {
		k.w.WarmLoad(ea, size)
	}
}

func (k *warmSink) WarmVector(ea uint64, stride int64, nelem int, store bool) {
	if k.w == nil {
		return
	}
	if store {
		k.w.WarmStoreVector(ea, stride, nelem)
	} else {
		k.w.WarmLoadVector(ea, stride, nelem)
	}
}

// bulkWarmer is the fast-forward protocol a source may offer (trace.Reader
// does): consume records wholesale, delivering only the warming-relevant
// ones, without reconstructing emu.Dyn values.
type bulkWarmer interface {
	WarmNext(n uint64, sink trace.WarmSink) uint64
}

// warmSpan fast-forwards up to n records through functional warming:
// branches train the predictor and BTB exactly as the detailed path would,
// memory references touch the model's tag arrays through mem.Warmer, and
// everything else is skipped. It reports how many records were consumed and
// whether the stream still has more.
func warmSpan(src trace.Source, statics []staticInst, rs *runState, w mem.Warmer, n uint64) (consumed uint64, more bool) {
	if bw, ok := src.(bulkWarmer); ok {
		consumed = bw.WarmNext(n, &warmSink{rs: rs, statics: statics, w: w})
		return consumed, consumed == n
	}
	pred, targets := rs.pred, rs.targets
	for consumed < n {
		d, ok := src.Next()
		if !ok {
			return consumed, false
		}
		consumed++
		st := &statics[d.SI]
		switch st.class {
		case isa.ClassBranch:
			if !st.isBR {
				pred.update(d.SI, d.Taken)
			}
			if d.Taken {
				targets.insert(d.SI)
			}
		case isa.ClassLoad:
			if w != nil {
				w.WarmLoad(d.EA, d.Size)
			}
		case isa.ClassStore:
			if w != nil {
				w.WarmStore(d.EA, d.Size)
			}
		case isa.ClassMomLoad:
			if w != nil {
				w.WarmLoadVector(d.EA, d.Stride, d.NElem)
			}
		case isa.ClassMomStore:
			if w != nil {
				w.WarmStoreVector(d.EA, d.Stride, d.NElem)
			}
		}
	}
	return consumed, true
}

// addDelta accumulates the counter-wise difference cur-snap into dst
// (everything except Cycles, Insts and Mem, which the sampled controller
// finalises itself).
func addDelta(dst, cur, snap *Result) {
	dst.WordOps += cur.WordOps - snap.WordOps
	dst.Branches += cur.Branches - snap.Branches
	dst.Mispredicts += cur.Mispredicts - snap.Mispredicts
	dst.BTBMisses += cur.BTBMisses - snap.BTBMisses
	dst.Loads += cur.Loads - snap.Loads
	dst.Stores += cur.Stores - snap.Stores
	for i := range dst.ByClass {
		dst.ByClass[i] += cur.ByClass[i] - snap.ByClass[i]
	}
	dp, cp, sp := &dst.Profile, &cur.Profile, &snap.Profile
	dp.Commit += cp.Commit - sp.Commit
	dp.Frontend += cp.Frontend - sp.Frontend
	dp.Mispredict += cp.Mispredict - sp.Mispredict
	dp.RenameROB += cp.RenameROB - sp.RenameROB
	dp.IssueQueue += cp.IssueQueue - sp.IssueQueue
	dp.FU += cp.FU - sp.FU
	dp.MemWait += cp.MemWait - sp.MemWait
	dp.StoreCommit += cp.StoreCommit - sp.StoreCommit
	dp.DepLatency += cp.DepLatency - sp.DepLatency
}

// meanStdErr returns the sample mean and the standard error of that mean
// (sqrt of the unbiased variance over k), zero stderr below two samples.
func meanStdErr(xs []float64) (mean, stderr float64) {
	n := float64(len(xs))
	if n == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= n
	if n < 2 {
		return mean, 0
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return mean, math.Sqrt(ss / (n - 1) / n)
}

// RunSampled consumes the stream like Run, but under the sampling regime of
// spec. A disabled spec delegates to Run and is bit-identical to it. For an
// enabled spec the returned Result aggregates the measured intervals only
// (so Profile.Total() == Cycles and IPC() is the sampled estimate), carries
// the run's Mem stats for every detailed-simulated access (warmup included;
// warm touches count nothing), and attaches a Sampled block. The observer,
// if any, sees measured-interval instructions only, so per-PC hotspot
// buckets still sum exactly to the aggregated profile.
func (s *Sim) RunSampled(src trace.Source, maxInsts uint64, spec SampleSpec) (Result, error) {
	if !spec.Enabled() {
		return s.Run(src, maxInsts)
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	if s.parallelOK(src, spec) {
		rd := src.(*trace.Reader)
		return s.runSampledParallel(rd.Trace(), rd, maxInsts, spec, s.Mem.(mem.Snapshotter))
	}
	statics := staticsFor(src)
	rs := acquireState(&s.Cfg)
	defer releaseState(rs)
	warmer, _ := s.Mem.(mem.Warmer)

	// scratch accumulates raw detailed-span counters (warmup + measured);
	// snapshots around each measured interval extract its delta into agg.
	var scratch, agg Result
	smp := &Sampled{Spec: recordedSpec(spec)}
	var ipcs []float64

	base := int64(0)
	more := true
	for more && rs.idx < maxInsts {
		rs.startWindow(&s.Cfg, base)

		// Warmup prefix: detailed, discarded, unobserved.
		pre := rs.idx
		var err error
		more, err = s.runSpan(rs, src, statics, &scratch, min(rs.idx+spec.Warmup, maxInsts), nil)
		if err != nil {
			return agg, err
		}
		smp.WarmupInsts += rs.idx - pre
		if !more || rs.idx >= maxInsts {
			break
		}

		// Measured interval.
		snap := scratch
		startFrontier := rs.profFrontier
		pre = rs.idx
		more, err = s.runSpan(rs, src, statics, &scratch, min(rs.idx+spec.Interval, maxInsts), s.Obs)
		if err != nil {
			return agg, err
		}
		mInsts := rs.idx - pre
		if mInsts == 0 {
			break
		}
		mCycles := rs.profFrontier - startFrontier
		addDelta(&agg, &scratch, &snap)
		agg.Cycles += mCycles
		smp.Intervals++
		smp.MeasuredInsts += mInsts
		if mCycles > 0 {
			ipcs = append(ipcs, float64(mInsts)/float64(mCycles))
		}
		if !more || rs.idx >= maxInsts {
			break
		}

		// Functional fast-forward to the next period.
		skip := spec.Period - spec.Warmup - spec.Interval
		if rem := maxInsts - rs.idx; skip > rem {
			skip = rem
		}
		var skipped uint64
		skipped, more = warmSpan(src, statics, rs, warmer, skip)
		rs.idx += skipped
		smp.SkippedInsts += skipped
		// Re-anchor the next window past the skipped span at ~1 CPI, far
		// enough ahead that the memory model's busy-until cursors from this
		// window have drained; the offset is deterministic, so sampled runs
		// replay bit-identically.
		base = rs.lastCommit + 1 + int64(skipped)
	}

	agg.Insts = smp.MeasuredInsts
	smp.TotalInsts = rs.idx
	smp.IPCMean, smp.IPCStdErr = meanStdErr(ipcs)
	agg.Mem = s.Mem.Stats()
	agg.Sampled = smp
	return agg, src.Err()
}
