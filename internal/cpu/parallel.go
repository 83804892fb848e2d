package cpu

// Parallel sampled simulation: a two-phase sweep/execute pipeline.
//
// Serial sampling (RunSampled) runs the window loop, runWindows, from the
// start of the stream to its end, so the whole run is one long dependence
// chain even though the measured intervals never exchange transient state —
// each window starts from a re-anchored, cleared pipeline and only inherits
// the long-lived structures (branch predictor, BTB, cache tag arrays) that
// functional warming maintains anyway.
//
// Phase 1 (the sweep) exploits that: a single fast pass over the recorded
// trace drives every record — including the spans the window loop
// simulates in detail — through functional warming, once, and logs at
// every window start k·Period the trace cursor and what the period before
// it changed (sweepLog): the final tag, valid/dirty bits and LRU stamp of
// every L1/L2 slot it touched, with the arrays' LRU ticks, and the counter
// and tag of every predictor entry and BTB entry it changed. The log does
// not depend on how windows are grouped into blocks. Perfect memory has no
// tag arrays, so its log carries the predictor and BTB deltas alone. A
// sampled run starts cold: RunSampled resets the caller's memory model,
// which the sweep warms, so the sweep starts from empty arrays and a fresh
// predictor and BTB, and its log depends only on what ckptKey names.
//
// Phase 2 splits the windows into blocks of consecutive windows and runs
// them on spec.Parallelism workers, each taking the next block index from
// one counter, so every worker meets its blocks in stream order. A worker
// builds one private runState and one private cold memory model of the
// caller's configuration, the state the sweep started from, and keeps them
// for the whole run: for each block it rolls them forward through the
// deltas from where its previous block ended to the block's first window,
// zeroes the model's timing resources and statistics, opens its own
// trace cursor there (Trace.ReaderAtCursor), and runs runWindows over the
// block for up to every windows. Between two windows a block does not warm
// the skip span: it applies the period's delta and seeks its reader to the
// next window's cursor, so no block re-warms what the sweep warmed. The
// ordered reduce (sampledResult, the serial path's final step too) then
// folds the blocks in stream order, so the result is bit-identical to the
// serial run:
//
//   - At every window start a block's long-lived state is the sweep's,
//     stamps included. The serial run's state there has the same lines,
//     dirty bits and per-set LRU order in both tag arrays, and the same
//     predictor and BTB (TestSweepMatchesSerial pins this for every Figure
//     7 unit); only the absolute LRU stamps differ, because a store the
//     write buffer coalesces skips the L2 touch warming makes. Replacement
//     compares stamps only within a set, so a window's counter deltas and
//     (insts, cycles) pairs — integers, and a function of that state —
//     are the serial run's.
//   - A window's detailed accesses touch only slots its period's warming
//     touched too, so the period's delta overwrites every one of them with
//     the sweep's contents, stamps and tick: a block never mixes its own
//     stamps with the sweep's. The direct-mapped L1 keeps no stamps, and a
//     hit there changes nothing on either path. The predictor and BTB train
//     identically on both paths, so their delta does the same. This is
//     also what lets a worker carry its state from one block's last window
//     to a later block's first.
//   - A block's cycle arithmetic is translation-invariant: the window loop
//     re-anchors each window at a base past which every busy-until cursor
//     has drained, so replaying the block with its first window at base 0
//     shifts every window's base by the same constant and leaves every
//     per-window cycle delta unchanged. The minParallelSkip gate below
//     enforces the "drained" part at block boundaries (within a block the
//     worker chains its own cursors, faithfully shifted, and crosses each
//     skip span with the same base advance the serial run makes).
//   - The IPC list is assembled in block order, window order within each
//     block — the identical float sequence into meanStdErr.
//   - Mem stats count only detailed-simulated accesses; summing the
//     workers' private stats in block order equals the serial model's
//     final counters.
//   - The stream-coverage counters follow from the windows: warmup and
//     measured instructions are summed over the blocks, the total is every
//     record up to maxInsts, and the rest was fast-forwarded.

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/par"
	"repro/internal/trace"
)

// minParallelSkip is the minimum functional fast-forward span (in dynamic
// instructions) required for the parallel path. The window loop re-anchors
// each window at base = lastCommit+1+skipped, and its memory model carries
// busy-until cursors from the previous window; replaying a block with its
// first window re-based to zero is bit-identical only once those cursors
// have drained below the block's original base. The deepest overhang a
// window can leave behind is a few hundred cycles (DRAM latency +
// channel/bank occupancy + queued MSHR and write-buffer drains), so a skip
// of 1024 instructions — at least 1024 cycles of base advance — clears it
// with margin. Shorter skips run serially rather than risk divergence.
const minParallelSkip = 1024

// blockOversubscribe is how many blocks the parallel path carves per
// worker. Windows are near-uniform in cost, so a small factor is enough to
// smooth the tail. The grain costs little else: whatever it is, a worker
// rolls its one memory model forward through the log up to its last block,
// and a block adds only a restart of the model's timing resources and a
// trace cursor.
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
// events), a recorded trace positioned at the start, a memory model the
// log can carry (loggable), and a skip span long enough to guarantee the
// memory model's cursors drain between windows.
func (s *Sim) parallelOK(src trace.Source, spec SampleSpec) bool {
	if spec.Parallelism <= 1 || s.Obs != nil {
		return false
	}
	if spec.Period-spec.Warmup-spec.Interval < minParallelSkip {
		return false
	}
	rd, ok := src.(*trace.Reader)
	return ok && rd.Pos() == 0 && loggable(s.Mem)
}

// loggable reports whether a sweep log can carry m's long-lived state: a
// detailed hierarchy's tag arrays, or nothing at all on perfect memory.
func loggable(m mem.Model) bool {
	switch m.(type) {
	case *mem.Hierarchy, *mem.Perfect:
		return true
	}
	return false
}

// coldModel returns a cold memory model of m's configuration, m being one
// the log can carry: a phase-2 worker's private memory.
func coldModel(m mem.Model) mem.Model {
	if h, ok := m.(*mem.Hierarchy); ok {
		return mem.NewHierarchy(h.Config())
	}
	return &mem.Perfect{Latency: m.(*mem.Perfect).Latency}
}

// sweepLog is phase 1's output: for every window that starts before
// min(Records, maxInsts), the trace cursor at its start and what its period
// changed in the long-lived state, which starts cold, as in a serial run.
// Every phase-2 block of every later run over the trace reads the log,
// concurrently and read-only.
type sweepLog struct {
	windows []logWindow
}

// logWindow is the sweep's record of one window: the cursor at its start,
// and the slots, counters and tags its period (from this window's start to
// the next one's) changed, as the period left them. The last window's
// period is empty: no window follows it.
type logWindow struct {
	cur  trace.Cursor
	tags mem.TagDelta
	br   []brEntry
}

// brEntry is one predictor counter, or with btbEntry set in idx one BTB
// tag, as a period left it.
type brEntry struct {
	idx uint32
	val int32
}

const btbEntry = 1 << 31

// bytes returns the approximate in-memory size of the log.
func (l *sweepLog) bytes() int64 {
	var n int64
	for i := range l.windows {
		w := &l.windows[i]
		n += 48 + w.tags.Bytes() + 8*int64(len(w.br)) // 48: the cursor and br's slice header
	}
	return n
}

// sweep is phase 1: one functional-warming pass over tr up to the start of
// its last window (within maxInsts), warming each record once and logging
// every window. It reads whole chunk tails and cuts windows inside them;
// the hierarchy and the two branch tables journal what they change, a
// slot, counter or tag at most once per period. It warms and journals
// s.Mem, which its callers have reset; on perfect memory it journals the
// branch tables alone.
func (s *Sim) sweep(tr *trace.Trace, statics []staticInst, maxInsts uint64, spec SampleSpec) *sweepLog {
	p := spec.Period
	nw := (min(tr.Records(), maxInsts) + p - 1) / p
	lg := &sweepLog{windows: make([]logWindow, nw)}
	if nw == 0 {
		return lg
	}
	pred, targets := newBimodal(s.Cfg.BimodalSize), newBTB(s.Cfg.BTBEntries)
	pred.jr, targets.jr = mem.NewJournal(len(pred.ctr)), mem.NewJournal(len(targets.tag))
	h, _ := s.Mem.(*mem.Hierarchy)
	var tj *mem.TagJournal
	if h != nil {
		tj = h.StartJournal()
		defer tj.Stop()
	}
	rd := tr.Reader()
	warm, flow := warmTableFor(rd, statics), rd.Flow()
	lg.windows[0].cur = rd.Cursor()
	last := (nw - 1) * p
	for pos, k := uint64(0), uint64(1); pos < last; {
		b := rd.NextBatch(math.MaxUint64)
		lo, eaI, strI, si := 0, 0, 0, b.First
		for lo < len(b.Meta) && pos < last {
			hi := lo + int(min(uint64(len(b.Meta)-lo), k*p-pos))
			eaI, strI, si = warmRecords(b, lo, hi, eaI, strI, si, warm, flow, pred, targets, h)
			pos += uint64(hi - lo)
			lo = hi
			if pos == k*p {
				w := &lg.windows[k-1]
				if tj != nil {
					w.tags = tj.Cut()
				}
				w.br = cutBranches(pred, targets)
				lg.windows[k].cur = rd.CursorAt(b, hi, eaI, strI, si)
				k++
			}
		}
	}
	return lg
}

// cutBranches returns the counters and tags the two journals listed, as
// they stand, and empties the journals.
func cutBranches(pred *bimodal, targets *btb) []brEntry {
	n := len(pred.jr.Touched) + len(targets.jr.Touched)
	if n == 0 {
		return nil
	}
	es := make([]brEntry, 0, n)
	for _, i := range pred.jr.Touched {
		es = append(es, brEntry{idx: uint32(i), val: int32(pred.ctr[i])})
	}
	for _, i := range targets.jr.Touched {
		es = append(es, brEntry{idx: uint32(i) | btbEntry, val: targets.tag[i]})
	}
	pred.jr.Reset()
	targets.jr.Reset()
	return es
}

// apply writes window k's period delta into a block's predictor, BTB and
// hierarchy (nil on perfect memory).
func (l *sweepLog) apply(k int, rs *runState, h *mem.Hierarchy) {
	w := &l.windows[k]
	if h != nil {
		h.ApplyDelta(&w.tags)
	}
	for _, e := range w.br {
		if e.idx&btbEntry != 0 {
			rs.targets.tag[e.idx&^btbEntry] = e.val
		} else {
			rs.pred.ctr[e.idx] = uint8(e.val)
		}
	}
}

// cross takes a block from the end of a window's detailed spans (rs.idx)
// to the start of the next window without walking the skip span: it
// applies the period's delta and seeks rd to the next window's cursor. Like
// warmSpan it reports the records it passed and whether a window may
// follow; past the last logged window none does.
func (l *sweepLog) cross(rs *runState, h *mem.Hierarchy, rd *trace.Reader, period uint64) (uint64, bool) {
	k := rs.idx / period
	if k+1 >= uint64(len(l.windows)) {
		return 0, false
	}
	l.apply(int(k), rs, h)
	next := l.windows[k+1].cur
	rd.Seek(next)
	return next.Pos() - rs.idx, true
}

// blockWorker is one phase-2 worker's private state, kept for the whole
// run: a memory model that started cold (sim.Mem, and h when it is a
// hierarchy), a runState, and the window whose period they are in. Between
// two windows they hold the sweep's state at that window's start, followed
// by at most the window's own detailed accesses, so the period's delta
// takes them to the next window exactly, as it does when a block crosses a
// skip span.
type blockWorker struct {
	sim *Sim
	h   *mem.Hierarchy // nil on perfect memory
	rs  *runState
	at  int
}

// run runs up to every windows from window first, which no earlier block of
// this worker reached: it rolls the state forward through the log to the
// block's first window, zeroes the model's timing resources and
// statistics, and opens a trace cursor there. The block's first window runs
// at base 0 (a pure translation; see the file comment), and the crossing
// after its last window is left out.
func (w *blockWorker) run(tr *trace.Trace, statics []staticInst, lg *sweepLog, first, every int, maxInsts uint64, spec SampleSpec, out *windows) error {
	for ; w.at < first; w.at++ {
		lg.apply(w.at, w.rs, w.h)
	}
	if w.h != nil {
		w.h.ResetTiming()
	} else {
		w.sim.Mem.Reset() // perfect memory holds nothing but its statistics
	}
	w.rs.idx = uint64(first) * spec.Period
	err := w.sim.runWindows(w.rs, tr.ReaderAtCursor(lg.windows[first].cur), statics, maxInsts, spec, every, lg, nil, out)
	w.at = int(w.rs.idx / spec.Period)
	return err
}

// ckptKey identifies a sweep log in a trace's ckptMemo: the sweep starts
// cold, so its output is a deterministic function of the recording, the
// period, the instruction budget, the warming behaviour of the memory
// model (Name captures a hierarchy's mode and width; perfect memory warms
// nothing at any latency) and the predictor/BTB geometry. The rest of the
// spec and the block grain are deliberately absent — the sweep warms every
// record whatever the warmup and interval, and one log serves every worker
// count and every grouping of windows into blocks.
type ckptKey struct {
	period, maxInsts uint64
	mem              string
	bimodal, btb     int
}

// maxCkptLibraries bounds how many sweep logs one trace keeps.
// Sample specs come from users, so a long-running server would otherwise
// keep a library for every spec it was ever asked for; one Figure 7 run
// puts at most 6 keys on a trace (3 MOM cache modes × 2 widths).
const maxCkptLibraries = 8

// ckptMemoKey keys a trace's ckptMemo in its aux cache.
type ckptMemoKey struct{}

// ckptMemo is one trace's checkpoint libraries, at most maxCkptLibraries
// of them; inserting past the cap evicts the oldest insertion. A library is
// a cached phase-1 result: the sweep log, shared read-only by every phase-2
// worker of every later run, so repeat experiments over the same trace pay
// the functional-warming pass once — the sampled-simulation analogue of
// capture-once / replay-many. Concurrent sampled runs over the trace share
// the memo.
type ckptMemo struct {
	mu   sync.Mutex
	libs []ckptEntry // oldest first
}

type ckptEntry struct {
	key ckptKey
	log *sweepLog
}

// ckptMemoFor returns the trace's checkpoint-library memo.
func ckptMemoFor(tr *trace.Trace) *ckptMemo {
	if v, ok := tr.Aux(ckptMemoKey{}); ok {
		return v.(*ckptMemo)
	}
	return tr.SetAux(ckptMemoKey{}, &ckptMemo{}).(*ckptMemo)
}

// get returns the library stored under k and whether there is one.
func (m *ckptMemo) get(k ckptKey) (*sweepLog, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, e := range m.libs {
		if e.key == k {
			return e.log, true
		}
	}
	return nil, false
}

// put stores lg under k unless a library is there already (a concurrent
// sweep of the same key got there first; both are identical).
func (m *ckptMemo) put(k ckptKey, lg *sweepLog) {
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
	m.libs = append(m.libs, ckptEntry{key: k, log: lg})
}

// runSampledParallel is the two-phase pipeline behind RunSampled when
// parallelOK holds, on a reset s.Mem: sweep the log (or reuse the trace's
// cached one), fan blocks of windows out over spec.Parallelism workers,
// each on one memory model newMem builds cold from s.Mem (coldModel in
// production), and reduce in block order. The result is bit-identical to
// the serial run's.
func (s *Sim) runSampledParallel(tr *trace.Trace, maxInsts uint64, spec SampleSpec, newMem func(mem.Model) mem.Model) (Result, error) {
	statics := staticsForTrace(tr)
	key := ckptKey{
		period: spec.Period, maxInsts: maxInsts, mem: s.Mem.Name(),
		bimodal: s.Cfg.BimodalSize, btb: s.Cfg.BTBEntries,
	}
	memo := ckptMemoFor(tr)
	lg, ok := memo.get(key)
	if !ok {
		lg = s.sweep(tr, statics, maxInsts, spec)
		memo.put(key, lg)
	}

	// Each worker takes block indices from one counter, so the blocks reach
	// it in stream order and its state only ever rolls forward.
	nw, blocks := len(lg.windows), spec.Parallelism*blockOversubscribe
	every := max(1, (nw+blocks-1)/blocks)
	runs := make([]windows, (nw+every-1)/every)
	workers := min(spec.Parallelism, len(runs))
	var next atomic.Int64
	err := par.ForN(context.Background(), workers, workers, func(int) error {
		m := newMem(s.Mem)
		h, _ := m.(*mem.Hierarchy)
		w := &blockWorker{sim: &Sim{Cfg: s.Cfg, Mem: m}, h: h, rs: acquireState(&s.Cfg)}
		defer releaseState(w.rs)
		for i := int(next.Add(1) - 1); i < len(runs); i = int(next.Add(1) - 1) {
			if err := w.run(tr, statics, lg, i*every, every, maxInsts, spec, &runs[i]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return sampledResult(spec, runs, min(tr.Records(), maxInsts)), nil
}

// SweepStats summarises a phase-1 sweep (momtrace -stats).
type SweepStats struct {
	Windows  int    // windows logged
	LogBytes int64  // the log's footprint
	Insts    uint64 // trace records the log covers
}

// SweepCheckpoints resets s.Mem, runs the phase-1 sweep alone and reports
// its log's footprint — the diagnostic behind momtrace -stats. It requires
// an enabled spec and a memory model the log can carry.
func (s *Sim) SweepCheckpoints(tr *trace.Trace, maxInsts uint64, spec SampleSpec) (SweepStats, error) {
	if err := spec.Validate(); err != nil {
		return SweepStats{}, err
	}
	if !spec.Enabled() {
		return SweepStats{}, fmt.Errorf("cpu: checkpoint sweep needs an enabled sample spec")
	}
	if !loggable(s.Mem) {
		return SweepStats{}, fmt.Errorf("cpu: memory model %s cannot be checkpointed", s.Mem.Name())
	}
	s.Mem.Reset()
	lg := s.sweep(tr, staticsForTrace(tr), maxInsts, spec)
	return SweepStats{Windows: len(lg.windows), LogBytes: lg.bytes(), Insts: min(tr.Records(), maxInsts)}, nil
}
