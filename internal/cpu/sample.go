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
	"repro/internal/obs"
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

	// Parallelism is the number of workers that run blocks of windows
	// concurrently, each from a checkpoint of the long-lived state (see
	// runSampledParallel). 0 and 1 both mean serial. The knob never changes
	// results: serial runs and parallel blocks share one window loop, the
	// parallel result is bit-identical to the serial one, and RunSampled
	// silently runs serially whenever the preconditions (recorded trace at
	// position zero, snapshottable memory model, no observer, a long enough
	// skip span) do not hold.
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
	// Period > Warmup + Interval, without letting the sum wrap around.
	if sp.Warmup >= sp.Period || sp.Interval >= sp.Period-sp.Warmup {
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

// warmSpan fast-forwards up to n records through functional warming,
// walking NextBatch columns with statics the way runSpan does: branches
// train the predictor and BTB exactly as the detailed path would, memory
// references touch the model's tag arrays through w (nil: no touches), and
// everything else is skipped. It reports how many records were consumed and
// whether that was all n of them (false means the stream ended).
func warmSpan(src trace.Source, statics []staticInst, rs *runState, w mem.Warmer, n uint64) (consumed uint64, more bool) {
	pred, targets := rs.pred, rs.targets
	for consumed < n {
		b := src.NextBatch(n - consumed)
		if len(b.SI) == 0 {
			return consumed, false
		}
		consumed += uint64(len(b.SI))
		metas := b.Meta[:len(b.SI)]
		eaI, strI := 0, 0
		for k, si32 := range b.SI {
			st := &statics[si32]
			switch st.mem {
			case memNone:
				if st.class != isa.ClassBranch {
					continue
				}
				taken := metas[k]&trace.MetaTaken != 0
				if !st.isBR {
					pred.update(int(si32), taken)
				}
				if taken {
					targets.insert(int(si32))
				}
			case memScalar:
				if w != nil {
					if st.class == isa.ClassStore {
						w.WarmStore(b.EA[eaI], int(st.size))
					} else {
						w.WarmLoad(b.EA[eaI], int(st.size))
					}
				}
				eaI++
			case memVector:
				if w != nil {
					nelem := int(metas[k] &^ trace.MetaTaken)
					if st.class == isa.ClassMomStore {
						w.WarmStoreVector(b.EA[eaI], b.Stride[strI], nelem)
					} else {
						w.WarmLoadVector(b.EA[eaI], b.Stride[strI], nelem)
					}
				}
				eaI++
				strI++
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
	dst.Profile.Add(cur.Profile)
	dst.Profile.Sub(snap.Profile)
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

// windows is what a run of sampled windows leaves behind: the measured
// intervals' counter deltas with their cycles in delta.Cycles, the interval
// count, the instructions measured and warmed up in detail, the
// per-interval IPCs in window order, and the memory model's stats (every
// detailed access, warmup included; warm touches count nothing).
type windows struct {
	delta     Result
	intervals int
	measured  uint64
	warmup    uint64
	ipcs      []float64
	mem       mem.Stats
}

// runWindows is the sampling-window loop. From rs's position in src, each
// window re-anchors the transient pipeline at a cycle base, simulates a
// detailed warmup (unobserved, counters discarded) and a detailed measured
// interval (under observer), then fast-forwards the rest of the period
// through functional warming; the next window's base lies past the skipped
// span. It stops at the end of the stream, at maxInsts, or after the n-th
// window (n <= 0: no limit), whose fast-forward it leaves out. The first
// window runs at base 0. At the end out.mem takes the memory model's stats.
func (s *Sim) runWindows(rs *runState, src trace.Source, statics []staticInst, maxInsts uint64, spec SampleSpec, n int, observer obs.Observer, out *windows) error {
	warmer, _ := s.Mem.(mem.Warmer)
	skip := spec.Period - spec.Warmup - spec.Interval
	var scratch Result // raw detailed-span counters, warmup + measured
	base := int64(0)
	more := true
	for w := 1; more && rs.idx < maxInsts; w++ {
		rs.startWindow(&s.Cfg, base)

		pre := rs.idx
		var err error
		more, err = s.runSpan(rs, src, statics, &scratch, min(rs.idx+spec.Warmup, maxInsts), nil)
		if err != nil {
			return err
		}
		out.warmup += rs.idx - pre
		if !more || rs.idx >= maxInsts {
			break
		}

		snap := scratch
		startFrontier := rs.profFrontier
		pre = rs.idx
		more, err = s.runSpan(rs, src, statics, &scratch, min(rs.idx+spec.Interval, maxInsts), observer)
		if err != nil {
			return err
		}
		mInsts := rs.idx - pre
		if mInsts == 0 {
			break
		}
		mCycles := rs.profFrontier - startFrontier
		addDelta(&out.delta, &scratch, &snap)
		out.delta.Cycles += mCycles
		out.intervals++
		out.measured += mInsts
		if mCycles > 0 {
			out.ipcs = append(out.ipcs, float64(mInsts)/float64(mCycles))
		}
		if !more || rs.idx >= maxInsts || w == n {
			break
		}

		var skipped uint64
		skipped, more = warmSpan(src, statics, rs, warmer, min(skip, maxInsts-rs.idx))
		rs.idx += skipped
		// Re-anchor the next window past the skipped span at ~1 CPI, far
		// enough ahead that the memory model's busy-until cursors from this
		// window have drained; the offset is deterministic, so sampled runs
		// replay bit-identically.
		base = rs.lastCommit + 1 + int64(skipped)
	}
	out.mem = s.Mem.Stats()
	return nil
}

// sampledResult is the ordered reduce shared by both sampled paths: it
// folds runs of windows in stream order (the serial path has one) into the
// Result and its Sampled block. total is the number of records consumed;
// whatever the detailed spans did not cover was fast-forwarded.
func sampledResult(spec SampleSpec, runs []windows, total uint64) Result {
	var res, zero Result
	smp := &Sampled{Spec: recordedSpec(spec), TotalInsts: total}
	var ipcs []float64
	for i := range runs {
		r := &runs[i]
		addDelta(&res, &r.delta, &zero)
		res.Cycles += r.delta.Cycles
		res.Mem.Add(r.mem)
		smp.Intervals += r.intervals
		smp.MeasuredInsts += r.measured
		smp.WarmupInsts += r.warmup
		ipcs = append(ipcs, r.ipcs...)
	}
	smp.SkippedInsts = total - smp.MeasuredInsts - smp.WarmupInsts
	smp.IPCMean, smp.IPCStdErr = meanStdErr(ipcs)
	res.Insts = smp.MeasuredInsts
	res.Sampled = smp
	return res
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
		return s.runSampledParallel(src.(*trace.Reader).Trace(), maxInsts, spec, s.Mem.(mem.Snapshotter))
	}
	rs := acquireState(&s.Cfg)
	defer releaseState(rs)
	var w windows
	if err := s.runWindows(rs, src, staticsFor(src), maxInsts, spec, 0, s.Obs, &w); err != nil {
		return Result{}, err
	}
	return sampledResult(spec, []windows{w}, rs.idx), src.Err()
}
