package cpu

// SMARTS-style sampled simulation (Wunderlich et al., ISCA 2003 — see
// EXPERIMENTS.md): the dynamic instruction stream is split into fixed-size
// periods; the head of each period is detailed-simulated (a warmup prefix
// whose measurements are discarded, then a measured interval), and the tail
// is fast-forwarded through a functional-warming path that updates only
// long-lived microarchitectural state — branch predictor, BTB and cache tag
// arrays (the hierarchy's warm touches, mem.Warmer) — at trace-replay
// speed. The per-interval IPCs give both the estimate and its standard
// error via the usual interval-variance formula.

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
	// concurrently, each from the long-lived state a single warming sweep
	// logged at every window start (see runSampledParallel). 0 and 1 both
	// mean serial. Observed (hotspot) runs are serial at any value. The
	// knob never changes results: serial runs and parallel blocks share
	// one window loop, the parallel result is bit-identical to the serial
	// one, and RunSampled silently runs serially whenever the
	// preconditions (recorded trace at position zero, a detailed hierarchy
	// or perfect memory, no observer, a long enough skip span) do not
	// hold.
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
// walking column batches (nextSpanBatch, warmRecords) as runSpan does, so it
// leaves src right after the records it consumed. It reports how many
// records were consumed and whether that was all n of them (false means
// the stream ended).
func warmSpan(src trace.Source, warm []warmInst, rs *runState, h *mem.Hierarchy, n uint64) (consumed uint64, more bool) {
	rd, _ := src.(*trace.Reader)
	flow := src.Flow()
	for consumed < n {
		b, k := nextSpanBatch(src, rd, n-consumed)
		if k == 0 {
			return consumed, false
		}
		consumed += uint64(k)
		eaI, strI, si := warmRecords(b, 0, k, 0, 0, b.First, warm, flow, rs.pred, rs.targets, h)
		if k < len(b.Meta) {
			rd.Seek(rd.CursorAt(b, k, eaI, strI, si))
		}
	}
	return consumed, true
}

// What functional warming does with a static instruction (warmInst.op).
const (
	warmNone = iota // nothing: it touches no long-lived state
	warmCond        // a conditional branch trains the predictor, and the BTB when taken
	warmJump        // an unconditional branch trains the BTB when taken
	warmLoad        // scalar accesses touch the tag arrays
	warmStore
	warmLoadVector // vector accesses touch the tag arrays
	warmStoreVector
)

// warmInst is a static instruction as functional warming sees it: what
// warming does with it, the access size of a scalar memory one, and for a
// warmNone one how many consecutive statics from it are warmNone (itself
// included, at most 65,535). The table is dense, four bytes a static, so
// the walk reads little beside the batch's columns.
type warmInst struct {
	op, size uint8
	run      uint16
}

// buildWarmTable derives the warm table from a statics table.
func buildWarmTable(statics []staticInst) []warmInst {
	wt := make([]warmInst, len(statics))
	for i := range statics {
		st := &statics[i]
		switch {
		case st.mem == memScalar && st.class == isa.ClassStore:
			wt[i] = warmInst{op: warmStore, size: st.size}
		case st.mem == memScalar:
			wt[i] = warmInst{op: warmLoad, size: st.size}
		case st.mem == memVector && st.class == isa.ClassMomStore:
			wt[i].op = warmStoreVector
		case st.mem == memVector:
			wt[i].op = warmLoadVector
		case st.class == isa.ClassBranch && st.isBR:
			wt[i].op = warmJump
		case st.class == isa.ClassBranch:
			wt[i].op = warmCond
		}
	}
	run := 0 // warmNone statics from i on, capped
	for i := len(wt) - 1; i >= 0; i-- {
		if wt[i].op != warmNone {
			run = 0
			continue
		}
		run = min(run+1, math.MaxUint16)
		wt[i].run = uint16(run)
	}
	return wt
}

// warmAuxKey keys the memoized warm table in a trace's aux cache.
type warmAuxKey struct{}

// warmTableFor returns the warm table of src's program, memoized on the
// trace, as its statics are, when src reads a recorded trace.
func warmTableFor(src trace.Source, statics []staticInst) []warmInst {
	rd, ok := src.(*trace.Reader)
	if !ok {
		return buildWarmTable(statics)
	}
	tr := rd.Trace()
	if v, ok := tr.Aux(warmAuxKey{}); ok {
		return v.([]warmInst)
	}
	return tr.SetAux(warmAuxKey{}, buildWarmTable(statics)).([]warmInst)
}

// warmRecords is functional warming's per-record walk over records
// [lo, hi) of batch b, reading the warm table: branches train the predictor
// and BTB exactly as the detailed path would (and, while the sweep
// journals them, list the counters and tags that changed), memory
// references touch the tag arrays of h (nil: a model without them), and
// everything else is skipped. At record lo, eaI and strI index b's address
// and stride columns and si is the record's static index; it returns the
// three at record hi.
//
// Only a branch leads anywhere but the next instruction, so the walk
// applies flow at branch records alone and between them derives record k's
// static index as k plus an offset. An index carried from record to record
// instead goes through a stack slot on every record, because the arms that
// call out would clobber its register; the offset changes only at taken
// branches, and the loop counter stays in a register. For the same reason
// a warmNone record's run of warmNone statics is a run of records, which
// the walk crosses in one step.
func warmRecords(b trace.Batch, lo, hi, eaI, strI int, si int32, warm []warmInst, flow trace.Flow, pred *bimodal, targets *btb, h *mem.Hierarchy) (int, int, int32) {
	metas := b.Meta[lo:hi]
	off := int(si) // record k's static index is k + off
	for k := 0; k < len(metas); k++ {
		cur := k + off
		wi := warm[cur]
		switch wi.op {
		case warmNone:
			k = min(k+int(wi.run), len(metas)) - 1
		case warmCond, warmJump:
			meta := metas[k]
			taken := meta&trace.MetaTaken != 0
			if wi.op == warmCond && pred.update(cur, taken) && pred.jr != nil {
				pred.jr.Touch(int(uint32(cur) & pred.mask))
			}
			if taken && targets.insert(cur) && targets.jr != nil {
				targets.jr.Touch(int(uint32(cur) & targets.mask))
			}
			off = int(flow.Next(int32(cur), meta)) - k - 1
		case warmLoad:
			// Nearly every warm load hits the direct-mapped L1, which
			// changes nothing: the inline test leaves WarmLoad to the rest.
			if ea := uint64(b.EA[eaI]); h != nil && !h.L1Hit(ea, int(wi.size)) {
				h.WarmLoad(ea, int(wi.size))
			}
			eaI++
		case warmStore:
			if h != nil {
				h.WarmStore(uint64(b.EA[eaI]), int(wi.size))
			}
			eaI++
		default:
			if h != nil {
				nelem := int(metas[k] &^ trace.MetaTaken)
				if wi.op == warmStoreVector {
					h.WarmStoreVector(uint64(b.EA[eaI]), b.Stride[strI], nelem)
				} else {
					h.WarmLoadVector(uint64(b.EA[eaI]), b.Stride[strI], nelem)
				}
			}
			eaI++
			strI++
		}
	}
	return eaI, strI, int32(len(metas) + off)
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
// interval (under observer), then crosses the rest of the period: with no
// sweep log it fast-forwards through functional warming, and with one (a
// parallel block, whose src is a trace.Reader) it applies the period's
// logged delta and seeks to the next window (sweepLog.cross). The next
// window's base lies past the crossed span. It stops at the end of the
// stream, at maxInsts, or after the n-th window (n <= 0: no limit), whose
// crossing it leaves out. The first window runs at base 0. At the end
// out.mem takes the memory model's stats.
func (s *Sim) runWindows(rs *runState, src trace.Source, statics []staticInst, maxInsts uint64, spec SampleSpec, n int, lg *sweepLog, observer obs.Observer, out *windows) error {
	var warm []warmInst
	if lg == nil {
		warm = warmTableFor(src, statics)
	}
	h, _ := s.Mem.(*mem.Hierarchy)
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
		if lg != nil {
			skipped, more = lg.cross(rs, h, src.(*trace.Reader), spec.Period)
		} else {
			skipped, more = warmSpan(src, warm, rs, h, min(skip, maxInsts-rs.idx))
		}
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
// spec. A disabled spec delegates to Run and is bit-identical to it. Like
// Run, an enabled spec first resets s.Mem, so the run starts cold and its
// result depends only on the trace, the machine and the spec. The returned
// Result then aggregates the measured intervals only (so Profile.Total() == Cycles
// and IPC() is the sampled estimate), carries the run's Mem stats for every
// detailed-simulated access (warmup included; warm touches count nothing),
// and attaches a Sampled block. The observer, if any, sees measured-interval
// instructions only, so per-PC hotspot buckets still sum exactly to the
// aggregated profile.
func (s *Sim) RunSampled(src trace.Source, maxInsts uint64, spec SampleSpec) (Result, error) {
	if !spec.Enabled() {
		return s.Run(src, maxInsts)
	}
	if err := spec.Validate(); err != nil {
		return Result{}, err
	}
	s.Mem.Reset()
	if s.parallelOK(src, spec) {
		return s.runSampledParallel(src.(*trace.Reader).Trace(), maxInsts, spec, coldModel)
	}
	rs := acquireState(&s.Cfg)
	defer releaseState(rs)
	var w windows
	if err := s.runWindows(rs, src, staticsFor(src), maxInsts, spec, 0, nil, s.Obs, &w); err != nil {
		return Result{}, err
	}
	return sampledResult(spec, []windows{w}, rs.idx), src.Err()
}
