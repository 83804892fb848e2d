package cpu

// Parallel sampled simulation: a two-phase checkpoint/execute pipeline.
//
// The serial sampled loop (RunSampled) interleaves detailed windows with
// functional fast-forward, so the whole run is one long dependence chain
// even though the measured intervals never exchange transient state — each
// window starts from a re-anchored, cleared pipeline and only inherits the
// long-lived structures (branch predictor, BTB, cache tag arrays) that
// functional warming maintains anyway.
//
// Phase 1 (checkpoint sweep) exploits that: a single fast pass over the
// recorded trace drives *every* span — including the spans the serial loop
// would have simulated in detail — through the functional-warming path,
// and snapshots the long-lived state plus the trace position at period
// boundaries into compact Checkpoint values. Checkpoints are taken every
// blockWindows windows, not every window: a coarser grain amortises the
// snapshot/restore cost while still feeding every core (the windows inside
// a block chain exactly like the serial loop, so nothing is lost).
//
// Phase 2 fans the blocks out across par.ForN workers. Each worker seeds
// a private runState and a private memory-model clone from its checkpoint,
// opens its own trace cursor at the checkpoint position (Trace.ReaderAt),
// and re-runs the serial control flow over its block — detailed warmup,
// detailed measured interval, functional fast-forward — for up to
// blockWindows windows. A deterministic ordered reduce then rebuilds the
// aggregates in block order, so the result is bit-identical to the serial
// loop:
//
//   - Counter deltas and interval (insts, cycles) pairs are integers and a
//     pure function of the window's inherited long-lived state, which the
//     sweep reproduces exactly (warming and detailed execution train the
//     predictor/BTB identically and touch the same tag-array lines).
//   - A block's cycle arithmetic is translation-invariant: the serial loop
//     re-anchors each window at a base past which every busy-until cursor
//     has drained, so replaying the block with its first window at base 0
//     shifts every window's base by the same constant and leaves every
//     per-window cycle delta unchanged. The minParallelSkip gate below
//     enforces the "drained" part at block boundaries (within a block the
//     worker chains its own cursors, faithfully shifted).
//   - The IPC list is assembled in block order, window order within each
//     block — the identical float sequence into meanStdErr.
//   - Mem stats count only detailed-simulated accesses; summing the
//     workers' private stats in block order equals the serial model's
//     final counters.

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/trace"
)

// minParallelSkip is the minimum functional fast-forward span (in dynamic
// instructions) required for the parallel path. The serial loop re-anchors
// each window at base = lastCommit+1+skipped, and its memory model carries
// busy-until cursors from the previous window; replaying a block with its
// first window re-based to zero is bit-identical only once those cursors
// have drained below the block's original base. The deepest overhang a
// window can leave behind is a few hundred cycles (DRAM latency +
// channel/bank occupancy + queued MSHR and write-buffer drains), so a skip
// of 1024 instructions — at least 1024 cycles of base advance — clears it
// with margin. Shorter skips fall back to the serial loop rather than risk
// divergence.
const minParallelSkip = 1024

// blockOversubscribe is how many blocks the parallel path carves per
// worker. Windows are near-uniform in cost, so a small factor is enough to
// smooth the tail while keeping the checkpoint count — and with it the
// snapshot, clone and cursor-positioning overhead — low.
const blockOversubscribe = 4

// recordedSpec is the spec as recorded in Sampled: the parallelism knob is
// cleared because it never changes results, so serial and parallel runs of
// the same sampling regime report the same Sampled block.
func recordedSpec(spec SampleSpec) SampleSpec {
	spec.Parallelism = 0
	return spec
}

// parallelOK reports whether RunSampled may take the parallel path:
// parallelism requested, no observer (hotspot attribution needs ordered
// events), a recorded trace positioned at the start, a memory model that
// can snapshot/clone its long-lived state, and a skip span long enough to
// guarantee the serial loop's cursors drain between windows.
func (s *Sim) parallelOK(src trace.Source, spec SampleSpec) bool {
	if spec.Parallelism <= 1 || s.Obs != nil {
		return false
	}
	if spec.Period-spec.Warmup-spec.Interval < minParallelSkip {
		return false
	}
	rd, ok := src.(*trace.Reader)
	if !ok || rd.Pos() != 0 {
		return false
	}
	_, ok = s.Mem.(mem.Snapshotter)
	return ok
}

// Checkpoint is the complete inheritance of one block of detailed windows:
// the trace position and global instruction index where the block's first
// window starts, and the long-lived microarchitectural state as functional
// warming left it — branch-predictor counters, BTB tags and the memory
// model's tag arrays. Everything transient (pipeline rings, issue slots,
// busy-until cursors) is deliberately absent: windows re-anchor on cleared
// transient state in the serial loop too.
type Checkpoint struct {
	Cur     trace.Cursor // trace position at the block's first window
	Idx     uint64       // dynamic instructions consumed before the block
	PredCtr []uint8
	BTBTag  []int32
	Tags    *mem.TagSnapshot // nil for stateless models
}

// Bytes returns the approximate in-memory size of the checkpoint.
func (c *Checkpoint) Bytes() int64 {
	return int64(len(c.PredCtr)) + 4*int64(len(c.BTBTag)) + c.Tags.Bytes() + 16
}

// sweepCheckpoints is phase 1: one functional-warming pass over the trace
// that mirrors the serial loop's span structure span for span — warmup,
// measured interval, fast-forward — but warms where the serial loop would
// simulate, materialising a Checkpoint at every-th window boundary. It
// accumulates the stream-coverage counters (WarmupInsts, SkippedInsts,
// TotalInsts) into smp exactly as the serial loop would; the measured-
// window counters come from the phase-2 workers.
func (s *Sim) sweepCheckpoints(rd *trace.Reader, statics []staticInst, maxInsts uint64, spec SampleSpec, sm mem.Snapshotter, smp *Sampled, every int) []Checkpoint {
	rs := acquireState(&s.Cfg)
	defer releaseState(rs)
	var cps []Checkpoint
	idx := uint64(0)
	more := true
	for window := 0; more && idx < maxInsts; window++ {
		if window%every == 0 {
			cps = append(cps, Checkpoint{
				Cur:     rd.Cursor(),
				Idx:     idx,
				PredCtr: rs.pred.snapshot(),
				BTBTag:  rs.targets.snapshot(),
				Tags:    sm.SnapshotTags(),
			})
		}
		// Warmup prefix (the serial loop simulates it in detail; its
		// counters are discarded but its Mem stats count, so even a
		// measureless tail window must be replayed by a worker).
		got, m := warmSpan(rd, statics, rs, sm, min(spec.Warmup, maxInsts-idx))
		idx += got
		smp.WarmupInsts += got
		more = m
		if !more || idx >= maxInsts {
			break
		}

		// Measured interval.
		got, m = warmSpan(rd, statics, rs, sm, min(spec.Interval, maxInsts-idx))
		idx += got
		more = m
		if got == 0 {
			break
		}
		if !more || idx >= maxInsts {
			break
		}

		// Functional fast-forward to the next period (same on both paths).
		skip := spec.Period - spec.Warmup - spec.Interval
		if rem := maxInsts - idx; skip > rem {
			skip = rem
		}
		got, more = warmSpan(rd, statics, rs, sm, skip)
		idx += got
		smp.SkippedInsts += got
	}
	smp.TotalInsts = idx
	return cps
}

// blockResult is one worker's output: the block's measured-interval
// aggregates in window order, plus the block's private Mem stats (warmup
// included — the serial run counts warmup accesses too).
type blockResult struct {
	delta     Result
	cycles    int64
	intervals int
	measured  uint64
	ipcs      []float64
	mem       mem.Stats
}

// runBlock replays up to `windows` checkpointed windows in full detail on
// private state: a fresh runState seeded with the checkpoint's
// predictor/BTB tables, a memory-model clone seeded with its tag arrays,
// and a trace cursor opened at its position. The control flow is the
// serial loop's, verbatim — detailed warmup, detailed measured interval,
// functional fast-forward, chained re-anchor bases — except the first
// window runs at base 0 (a pure translation; see the file comment) and the
// fast-forward after the block's last window is elided (the next block's
// checkpoint already embodies it).
func (s *Sim) runBlock(tr *trace.Trace, statics []staticInst, sm mem.Snapshotter, cp *Checkpoint, windows int, maxInsts uint64, spec SampleSpec, out *blockResult) error {
	model := sm.NewFromSnapshot(cp.Tags)
	wsim := &Sim{Cfg: s.Cfg, Mem: model}
	warmer, _ := model.(mem.Warmer)
	ws := acquireState(&s.Cfg)
	defer releaseState(ws)
	ws.pred.restore(cp.PredCtr)
	ws.targets.restore(cp.BTBTag)
	ws.idx = cp.Idx
	rd := tr.ReaderAtCursor(cp.Cur)

	var scratch Result
	base := int64(0)
	more := true
	for w := 0; w < windows && more && ws.idx < maxInsts; w++ {
		ws.startWindow(&s.Cfg, base)

		pre := ws.idx
		var err error
		more, err = wsim.runSpan(ws, rd, statics, &scratch, min(ws.idx+spec.Warmup, maxInsts), nil)
		if err != nil {
			return err
		}
		if !more || ws.idx >= maxInsts {
			break
		}

		snap := scratch
		startFrontier := ws.profFrontier
		pre = ws.idx
		more, err = wsim.runSpan(ws, rd, statics, &scratch, min(ws.idx+spec.Interval, maxInsts), nil)
		if err != nil {
			return err
		}
		mInsts := ws.idx - pre
		if mInsts == 0 {
			break
		}
		mCycles := ws.profFrontier - startFrontier
		addDelta(&out.delta, &scratch, &snap)
		out.cycles += mCycles
		out.intervals++
		out.measured += mInsts
		if mCycles > 0 {
			out.ipcs = append(out.ipcs, float64(mInsts)/float64(mCycles))
		}
		if !more || ws.idx >= maxInsts || w == windows-1 {
			break
		}

		skip := spec.Period - spec.Warmup - spec.Interval
		if rem := maxInsts - ws.idx; skip > rem {
			skip = rem
		}
		var skipped uint64
		skipped, more = warmSpan(rd, statics, ws, warmer, skip)
		ws.idx += skipped
		base = ws.lastCommit + 1 + int64(skipped)
	}
	out.mem = model.Stats()
	return nil
}

// ckptKey identifies a checkpoint library in a trace's ckptMemo: the
// sweep's output is a deterministic function of the recording, the
// sampling regime, the instruction budget, the block grain, the warming
// behaviour of the memory model (Name captures mode and width) and the
// predictor/BTB geometry. Parallelism is deliberately absent — checkpoints
// are identical for every worker count at the same grain.
type ckptKey struct {
	period, warmup, interval, maxInsts uint64
	every                              int
	mem                                string
	bimodal, btb                       int
}

// ckptLibrary is a cached phase-1 result: the block checkpoints plus the
// stream-coverage counters the sweep accumulated. Checkpoints are shared
// read-only by every phase-2 worker of every subsequent run, so repeat
// experiments over the same trace pay the functional-warming pass once —
// the sampled-simulation analogue of capture-once / replay-many.
type ckptLibrary struct {
	cps                    []Checkpoint
	warmup, skipped, total uint64
}

// maxCkptLibraries bounds how many checkpoint libraries one trace keeps.
// Sample specs come from users, so a long-running server would otherwise
// keep a library for every spec it was ever asked for; one Figure 7 run
// puts at most 6 keys on a trace (3 MOM cache modes × 2 widths).
const maxCkptLibraries = 8

// ckptMemoKey keys a trace's ckptMemo in its aux cache.
type ckptMemoKey struct{}

// ckptMemo is one trace's checkpoint libraries, at most maxCkptLibraries
// of them; inserting past the cap evicts the oldest insertion. Concurrent
// sampled runs over the trace share it.
type ckptMemo struct {
	mu   sync.Mutex
	libs []ckptEntry // oldest first
}

type ckptEntry struct {
	key ckptKey
	lib *ckptLibrary
}

// ckptMemoFor returns the trace's checkpoint-library memo.
func ckptMemoFor(tr *trace.Trace) *ckptMemo {
	if v, ok := tr.Aux(ckptMemoKey{}); ok {
		return v.(*ckptMemo)
	}
	return tr.SetAux(ckptMemoKey{}, &ckptMemo{}).(*ckptMemo)
}

// get returns the library stored under k, or nil.
func (m *ckptMemo) get(k ckptKey) *ckptLibrary {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.libs {
		if e.key == k {
			return e.lib
		}
	}
	return nil
}

// put stores lib under k unless a library is there already (a concurrent
// sweep of the same key got there first; both are identical).
func (m *ckptMemo) put(k ckptKey, lib *ckptLibrary) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.libs {
		if e.key == k {
			return
		}
	}
	if len(m.libs) == maxCkptLibraries {
		m.libs = append(m.libs[:0], m.libs[1:]...)
	}
	m.libs = append(m.libs, ckptEntry{key: k, lib: lib})
}

// runSampledParallel is the two-phase pipeline behind RunSampled when
// parallelOK holds: sweep checkpoints (or reuse the trace's cached
// library), fan the blocks out over spec.Parallelism workers, and reduce
// in block order. The result is bit-identical to the serial loop's.
func (s *Sim) runSampledParallel(tr *trace.Trace, rd *trace.Reader, maxInsts uint64, spec SampleSpec, sm mem.Snapshotter) (Result, error) {
	statics := staticsForTrace(tr)
	smp := &Sampled{Spec: recordedSpec(spec)}

	// Block grain: enough blocks to feed every worker several times over,
	// as few checkpoints as that allows.
	records := min(tr.Records(), maxInsts)
	nWindows := (records + spec.Period - 1) / spec.Period
	blocks := uint64(spec.Parallelism) * blockOversubscribe
	if blocks > nWindows {
		blocks = nWindows
	}
	if blocks < 1 {
		blocks = 1
	}
	every := int((nWindows + blocks - 1) / blocks)

	key := ckptKey{
		period: spec.Period, warmup: spec.Warmup, interval: spec.Interval,
		maxInsts: maxInsts, every: every, mem: s.Mem.Name(),
		bimodal: s.Cfg.BimodalSize, btb: s.Cfg.BTBEntries,
	}
	memo := ckptMemoFor(tr)
	lib := memo.get(key)
	if lib == nil {
		var sweep Sampled
		cps := s.sweepCheckpoints(rd, statics, maxInsts, spec, sm, &sweep, every)
		lib = &ckptLibrary{cps: cps, warmup: sweep.WarmupInsts, skipped: sweep.SkippedInsts, total: sweep.TotalInsts}
		memo.put(key, lib)
	}
	smp.WarmupInsts, smp.SkippedInsts, smp.TotalInsts = lib.warmup, lib.skipped, lib.total
	cps := lib.cps

	results := make([]blockResult, len(cps))
	err := par.ForN(context.Background(), spec.Parallelism, len(cps), func(i int) error {
		return s.runBlock(tr, statics, sm, &cps[i], every, maxInsts, spec, &results[i])
	})
	if err != nil {
		return Result{}, err
	}

	// Deterministic ordered reduce: identical interval order, identical
	// addDelta accumulation, identical IPC sequence into meanStdErr.
	var agg, zero Result
	var ipcs []float64
	for i := range results {
		r := &results[i]
		addDelta(&agg, &r.delta, &zero)
		agg.Cycles += r.cycles
		smp.Intervals += r.intervals
		smp.MeasuredInsts += r.measured
		ipcs = append(ipcs, r.ipcs...)
		agg.Mem.Add(r.mem)
	}
	agg.Insts = smp.MeasuredInsts
	smp.IPCMean, smp.IPCStdErr = meanStdErr(ipcs)
	agg.Sampled = smp
	return agg, nil
}

// SweepStats summarises a phase-1 checkpoint sweep (momtrace -stats).
type SweepStats struct {
	Checkpoints   int    // windows materialised
	SnapshotBytes int64  // total checkpoint footprint
	Insts         uint64 // trace records the sweep covered
}

// SweepCheckpoints runs the phase-1 checkpoint sweep alone, at the finest
// grain (one checkpoint per window), and reports its footprint — the
// diagnostic behind momtrace -stats. It requires an enabled spec and a
// snapshottable memory model.
func (s *Sim) SweepCheckpoints(tr *trace.Trace, maxInsts uint64, spec SampleSpec) (SweepStats, error) {
	if err := spec.Validate(); err != nil {
		return SweepStats{}, err
	}
	if !spec.Enabled() {
		return SweepStats{}, fmt.Errorf("cpu: checkpoint sweep needs an enabled sample spec")
	}
	sm, ok := s.Mem.(mem.Snapshotter)
	if !ok {
		return SweepStats{}, fmt.Errorf("cpu: memory model %s cannot snapshot", s.Mem.Name())
	}
	statics := staticsForTrace(tr)
	var smp Sampled
	cps := s.sweepCheckpoints(tr.Reader(), statics, maxInsts, spec, sm, &smp, 1)
	st := SweepStats{Checkpoints: len(cps), Insts: smp.TotalInsts}
	for i := range cps {
		st.SnapshotBytes += cps[i].Bytes()
	}
	return st, nil
}
