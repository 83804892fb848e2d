package cpu

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"sync"

	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Result summarises one timed run.
type Result struct {
	Cycles      int64
	Insts       uint64
	WordOps     uint64 // packed-word operations (vector ops count VL words)
	Branches    uint64
	Mispredicts uint64
	BTBMisses   uint64
	Loads       uint64
	Stores      uint64
	ByClass     [16]uint64 // graduated instructions per isa.Class
	Mem         mem.Stats
	Profile     obs.Profile // cycle attribution; sums to Cycles
	// Sampled is non-nil only for RunSampled runs; it describes the sampling
	// regime and the statistical quality of the estimate. For sampled runs
	// Cycles/Insts/WordOps/Profile cover the measured intervals only (so IPC
	// and the attribution identity stay exact), while Mem covers every
	// detailed-simulated access including warmup prefixes.
	Sampled *Sampled
}

// IPC returns graduated instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Insts) / float64(r.Cycles)
}

// OPC returns packed-word operations per cycle (a fetch-pressure metric:
// MOM packs an order of magnitude more operations per instruction).
func (r Result) OPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.WordOps) / float64(r.Cycles)
}

// MarshalJSON encodes r under its Go field names, Mem's and Profile's
// included. Those two types carry the json tags of the public result
// documents (mom.Result); the timing core's own result keeps the untagged
// encoding that perfbench's pinned timing-core digests (cpu_sha256 in
// perfbench/golden.json) were taken in.
func (r Result) MarshalJSON() ([]byte, error) { return goFieldNames(reflect.ValueOf(r)) }

// goFieldNames encodes a struct as a JSON object keyed by its Go field
// names, recursing into struct-valued fields; any other value is encoded
// by encoding/json.
func goFieldNames(v reflect.Value) ([]byte, error) {
	if v.Kind() != reflect.Struct {
		return json.Marshal(v.Interface())
	}
	out := []byte{'{'}
	for i := 0; i < v.NumField(); i++ {
		f, err := goFieldNames(v.Field(i))
		if err != nil {
			return nil, err
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = append(append(append(out, '"'), v.Type().Field(i).Name...), '"', ':')
		out = append(out, f...)
	}
	return append(out, '}'), nil
}

// ---- resource helpers ----

// slots hands out up to width slots per cycle to requests whose earliest
// cycle is non-decreasing (fetch, dispatch, commit are in program order).
type slots struct {
	width int
	cycle int64
	used  int
}

func (s *slots) take(earliest int64) int64 {
	if earliest > s.cycle {
		s.cycle, s.used = earliest, 0
	}
	if s.used < s.width {
		s.used++
		return s.cycle
	}
	s.cycle++
	s.used = 1
	return s.cycle
}

// wideSlots hands out up to width slots per cycle for non-monotonic requests
// (issue is out of order). It is a ring of per-cycle counters anchored at
// the dispatch frontier, which lower-bounds every future request: advancing
// the frontier retires old cells, and the ring doubles if a request lands
// further ahead of the frontier than the current window covers.
type wideSlots struct {
	width int32
	base  int64   // cycle stored in slot base&mask
	used  []int32 // per-cycle issue counts; length is a power of two
	mask  int64
}

func newWideSlots(width int) *wideSlots {
	const n = 1 << 10
	return &wideSlots{width: int32(width), used: make([]int32, n), mask: n - 1}
}

// grow widens the window until cycle c fits, re-anchoring every live cell.
func (s *wideSlots) grow(c int64) {
	n := int64(len(s.used))
	for c-s.base >= n {
		n *= 2
	}
	wide := make([]int32, n)
	for cyc := s.base; cyc < s.base+int64(len(s.used)); cyc++ {
		wide[cyc&(n-1)] = s.used[cyc&s.mask]
	}
	s.used, s.mask = wide, n-1
}

// tryTake takes a slot in cycle c if c lies inside the window and its cell
// is not full, and reports whether it did. It is take's first probe, small
// enough to inline, so the common request makes no call: take itself runs
// only to clamp, search or grow.
func (s *wideSlots) tryTake(c int64) bool {
	if uint64(c-s.base) < uint64(len(s.used)) {
		if p := &s.used[c&s.mask]; *p < s.width {
			*p++
			return true
		}
	}
	return false
}

func (s *wideSlots) take(earliest int64) int64 {
	c := earliest
	if c < s.base {
		c = s.base
	}
	if c-s.base >= int64(len(s.used)) {
		s.grow(c)
	}
	for s.used[c&s.mask] >= s.width {
		c++
		if c-s.base >= int64(len(s.used)) {
			s.grow(c)
		}
	}
	s.used[c&s.mask]++
	return c
}

// advance moves the window base to the dispatch frontier, clearing the
// cells that fall behind it (they can never be requested again).
func (s *wideSlots) advance(frontier int64) {
	if frontier <= s.base {
		return
	}
	if frontier-s.base >= int64(len(s.used)) {
		clear(s.used)
	} else {
		for c := s.base; c < frontier; c++ {
			s.used[c&s.mask] = 0
		}
	}
	s.base = frontier
}

// A functional-unit family (integer, FP, media) is one slice holding the
// cycle each unit is next free: the simple units first, then the complex
// ones. Simple operations may execute on complex units, so they pick from
// the whole slice; complex operations pick from the complex tail.

// leastBusy returns the unit that frees first, the lowest index on ties
// (so a simple unit before a complex one); the value it points at is the
// cycle that unit frees. units must not be empty.
func leastBusy(units []int64) *int64 {
	u := &units[0]
	for i := 1; i < len(units); i++ {
		if units[i] < *u {
			u = &units[i]
		}
	}
	return u
}

// issue reserves unit u for occ cycles for an instruction whose operands
// are ready at ready. The instruction waits for the unit to free (t0),
// then for an issue slot (c), and executes from c. runSpan's compute arm
// spells these steps out with tryTake in front of take, so that its common
// case makes no call (issue with the probe would be too large to inline).
func issue(slots *wideSlots, u *int64, ready, occ int64) (c, t0 int64) {
	t0 = max(ready, *u)
	c = slots.take(t0)
	*u = c + occ
	return c, t0
}

// issueAll is issue for an access that reserves every unit (multi-address
// vector accesses take all memory ports): it waits for the first unit to
// free (t0) and for an issue slot (c), then starts once every unit is free.
func issueAll(slots *wideSlots, units []int64, ready, occ int64) (start, c, t0 int64) {
	t0 = max(ready, *leastBusy(units))
	c = slots.take(t0)
	start = c
	for _, b := range units {
		start = max(start, b)
	}
	for i := range units {
		units[i] = start + occ
	}
	return start, c, t0
}

// storeWindow tracks in-flight stores for load-store ordering.
type storeWindow struct {
	lo, hi []uint64 // address ranges [lo,hi)
	ready  []int64  // cycle store data is ready (forwarding source)
	head   int
	// maxReady bounds every ready entry from above: add raises it and
	// reset clears it, and an evicted entry leaves it where it was.
	maxReady int64
}

func newStoreWindow(n int) *storeWindow {
	return &storeWindow{lo: make([]uint64, n), hi: make([]uint64, n), ready: make([]int64, n)}
}

func (w *storeWindow) add(lo, hi uint64, ready int64) {
	w.lo[w.head], w.hi[w.head], w.ready[w.head] = lo, hi, ready
	if w.head++; w.head == len(w.lo) {
		w.head = 0
	}
	w.maxReady = max(w.maxReady, ready)
}

// loadDone returns the cycle a load of [lo,hi) has its data when the
// memory model delivers it at memDone: one past the latest overlapping
// store's data-ready cycle if that is later. Only a store ready at or after
// memDone can delay the load, and none is while maxReady < memDone, so most
// loads skip the scan; the answer is the scan's either way.
func (w *storeWindow) loadDone(lo, hi uint64, memDone int64) int64 {
	if w.maxReady < memDone {
		return memDone
	}
	if fwd := w.conflictReady(lo, hi); fwd > 0 && fwd+1 > memDone {
		return fwd + 1
	}
	return memDone
}

// conflictReady returns the latest data-ready time among stores overlapping
// [lo,hi), or 0 if none conflict.
func (w *storeWindow) conflictReady(lo, hi uint64) int64 {
	var r int64
	for i := range w.lo {
		if w.lo[i] < hi && lo < w.hi[i] && w.ready[i] > r {
			r = w.ready[i]
		}
	}
	return r
}

// vecRange computes the byte range touched by a strided vector access.
func vecRange(base uint64, stride int64, n, size int) (lo, hi uint64) {
	if n <= 0 {
		return base, base
	}
	last := base + uint64(int64(n-1)*stride)
	lo, hi = base, last
	if last < base {
		lo, hi = last, base
	}
	return lo, hi + uint64(size)
}

const regKeySpace = 8 * 64

// noReg is the register key of an unused source operand: its lastWriter
// entry is never written, so it stays 0 and never delays an instruction.
const noReg = regKeySpace

func regKey(r isa.Reg) int { return int(r.Kind)<<6 | int(r.Idx) }

// Sim runs programs on one processor configuration and memory model.
// Obs, when non-nil, receives one obs.Event per dynamic instruction; a nil
// observer is free (Run only assembles events when one is attached, and no
// timing or counter depends on observation).
type Sim struct {
	Cfg Config
	Mem mem.Model
	Obs obs.Observer
}

// New creates a simulator from a configuration and a memory model.
func New(cfg Config, m mem.Model) *Sim {
	cfg.Validate()
	return &Sim{Cfg: cfg, Mem: m}
}

// Memory kind of a static instruction: which of a batch's sparse columns
// its records occupy.
const (
	memNone   = iota
	memScalar // one EA entry
	memVector // one EA and one Stride entry
)

// Functional-unit families a compute instruction issues to, indexing
// runSpan's fams: a family's whole slice for simple operations, its complex
// tail for complex ones (see leastBusy).
const (
	famInt = iota
	famIntComplex
	famFP
	famFPComplex
	famMed
	famMedComplex
	numFams
)

// staticInst caches the per-static-instruction facts the timing loop needs,
// hoisting the Op.Info() map lookups and DepsOf normalisation out of the
// per-dynamic-instruction path. With the batch's own columns it is all the
// loop reads about a record.
type staticInst struct {
	lat     int64
	class   isa.Class
	mem     uint8 // memNone, memScalar or memVector
	size    uint8 // element size in bytes, memory instructions only
	fam     uint8 // unit family of a compute instruction; famInt is the zero value
	matrix  bool  // MOM matrix operation: VL words on one multimedia unit
	isBR    bool  // unconditional branch (always predicted taken)
	dstKey  int32 // regKey of the destination, -1 if none
	dstKind isa.RegKind
	srcKeys [4]int32 // regKeys of the sources, noReg for unused operands
}

// buildStatics computes the staticInst table for a program; it runs once
// per Run, then every dynamic instruction is a single slice index.
func buildStatics(p *isa.Program) []staticInst {
	sts := make([]staticInst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		info := in.Op.Info()
		dst, srcs := isa.DepsOf(in)
		st := &sts[i]
		st.lat, st.class = int64(info.Lat), info.Class
		switch info.Class {
		case isa.ClassLoad, isa.ClassStore:
			st.mem, st.size = memScalar, uint8(in.Op.ElemSize())
		case isa.ClassMomLoad, isa.ClassMomStore:
			st.mem, st.size = memVector, uint8(in.Op.ElemSize())
		case isa.ClassIntComplex:
			st.fam = famIntComplex
		case isa.ClassFPSimple:
			st.fam = famFP
		case isa.ClassFPComplex:
			st.fam = famFPComplex
		case isa.ClassMedSimple:
			st.fam = famMed
		case isa.ClassMedComplex:
			st.fam = famMedComplex
		case isa.ClassMomSimple:
			st.fam, st.matrix = famMed, true
		case isa.ClassMomComplex:
			st.fam, st.matrix = famMedComplex, true
		}
		st.isBR = in.Op == isa.BR
		st.dstKey = -1
		if dst.Valid() {
			st.dstKey, st.dstKind = int32(regKey(dst)), dst.Kind
		}
		st.srcKeys = [4]int32{noReg, noReg, noReg, noReg}
		for i, src := range srcs {
			if !src.Valid() {
				break
			}
			st.srcKeys[i] = int32(regKey(src))
		}
	}
	return sts
}

// staticsAuxKey keys the memoized staticInst table in a trace's aux cache.
type staticsAuxKey struct{}

// staticsForTrace returns the staticInst table for a recorded trace,
// memoized on the trace: the table is a pure function of the immutable
// program, and rebuilding it (one Op.Info map lookup per static) otherwise
// dominates short sampled replays.
func staticsForTrace(tr *trace.Trace) []staticInst {
	if v, ok := tr.Aux(staticsAuxKey{}); ok {
		return v.([]staticInst)
	}
	return tr.SetAux(staticsAuxKey{}, buildStatics(tr.Program())).([]staticInst)
}

// staticsFor resolves the staticInst table for any source, memoizing via
// the trace when the source is a recorded-trace reader.
func staticsFor(src trace.Source) []staticInst {
	if rd, ok := src.(*trace.Reader); ok {
		return staticsForTrace(rd.Trace())
	}
	return buildStatics(src.Program())
}

// runState holds every piece of per-run mutable timing state. Pooling it
// (statePool) lets repeated runs — and the per-window restarts of sampled
// runs — reuse all allocations: after the first run of a given
// configuration, Run allocates only the statics table.
type runState struct {
	pred    *bimodal
	targets *btb

	// Functional units, one family per slice (see leastBusy).
	intUnits, fpUnits, medUnits, ports []int64

	dispatchSlots slots
	commitSlots   slots
	issueSlots    *wideSlots

	// The ROB, LSQ and rename rings advance one slot per allocation; each
	// head wraps by compare-and-reset (rename rings follow the physical
	// register count, so their lengths are not powers of two).
	robRing []int64
	robHead int
	lsqRing []int64
	lsqHead int

	rename [8]renameRing

	lastWriter [regKeySpace + 1]int64 // indexed by regKey, or noReg
	stores     *storeWindow

	// Span cursors: runSpan loads these into locals on entry and stores
	// them back on exit, so a run can be split across several spans.
	fetchCycle, lastDispatch, lastCommit int64
	fetchUsed                            int
	idx                                  uint64

	// Cycle-attribution state: profFrontier is the last cycle already
	// accounted for (-1 before anything commits, so the telescoping sum of
	// frontier advances is exactly lastCommit+1 == Cycles), and
	// redirectCycle marks a fetch cycle installed by a mispredict redirect
	// so the refill bubble is attributed to Mispredict, not Frontend.
	profFrontier, redirectCycle int64

	// ev is the observer event scratch; observers that retain an event past
	// the Observe call must copy it (the obs contract), so reusing one
	// backing struct per state is safe and keeps the hot loop allocation-free.
	ev obs.Event
}

var statePool sync.Pool

// acquireState returns a runState sized and reset for cfg, reusing pooled
// allocations when the sizes match.
func acquireState(cfg *Config) *runState {
	rs, _ := statePool.Get().(*runState)
	if rs == nil {
		rs = &runState{}
	}
	rs.ensure(cfg)
	return rs
}

func releaseState(rs *runState) { statePool.Put(rs) }

// renameRing is one register kind's in-flight writes, as the commit cycle
// of each, and the slot the next write takes. A nil ring means unlimited
// in-flight writes.
type renameRing struct {
	commits []int64
	head    int
}

// ensureRing resizes (or clears) an int64 ring or unit family; n <= 0
// yields nil.
func ensureRing(r []int64, n int) []int64 {
	if n <= 0 {
		return nil
	}
	if len(r) != n {
		return make([]int64, n)
	}
	clear(r)
	return r
}

// reset re-anchors the issue window at base, clearing every cell but keeping
// any grown capacity.
func (s *wideSlots) reset(base int64) {
	clear(s.used)
	s.base = base
}

// reset clears the in-flight store window.
func (w *storeWindow) reset() {
	clear(w.lo)
	clear(w.hi)
	clear(w.ready)
	w.head = 0
	w.maxReady = 0
}

// ensure makes the state match cfg's structure sizes and resets everything
// to run-start values (identical to a freshly allocated state).
func (rs *runState) ensure(cfg *Config) {
	if rs.pred != nil && len(rs.pred.ctr) == cfg.BimodalSize {
		for i := range rs.pred.ctr {
			rs.pred.ctr[i] = 1
		}
	} else {
		rs.pred = newBimodal(cfg.BimodalSize)
	}
	if rs.targets != nil && len(rs.targets.tag) == cfg.BTBEntries {
		for i := range rs.targets.tag {
			rs.targets.tag[i] = -1
		}
	} else {
		rs.targets = newBTB(cfg.BTBEntries)
	}

	rs.intUnits = ensureRing(rs.intUnits, cfg.IntSimple+cfg.IntComplex)
	rs.fpUnits = ensureRing(rs.fpUnits, cfg.FPSimple+cfg.FPComplex)
	rs.medUnits = ensureRing(rs.medUnits, cfg.MedSimple+cfg.MedComplex)
	rs.ports = ensureRing(rs.ports, cfg.MemPorts)

	rs.dispatchSlots = slots{width: cfg.Width}
	rs.commitSlots = slots{width: cfg.Width}
	if rs.issueSlots != nil && rs.issueSlots.width == int32(cfg.Width) {
		rs.issueSlots.reset(0)
	} else {
		rs.issueSlots = newWideSlots(cfg.Width)
	}

	rs.robRing = ensureRing(rs.robRing, cfg.ROBSize)
	rs.robHead = 0
	rs.lsqRing = ensureRing(rs.lsqRing, cfg.LSQSize)
	rs.lsqHead = 0
	for k := isa.RegKind(0); k < 8; k++ {
		rs.rename[k] = renameRing{commits: ensureRing(rs.rename[k].commits, cfg.inFlight(k))}
	}
	clear(rs.lastWriter[:])
	if rs.stores != nil && len(rs.stores.lo) == cfg.LSQSize {
		rs.stores.reset()
	} else {
		rs.stores = newStoreWindow(cfg.LSQSize)
	}

	rs.fetchCycle, rs.lastDispatch, rs.lastCommit = 0, 0, 0
	rs.fetchUsed = 0
	rs.idx = 0
	rs.profFrontier, rs.redirectCycle = -1, -1
}

// Run consumes a dynamic instruction stream to completion (or maxInsts
// dynamic instructions, whichever comes first) under the timing model and
// returns the result. The source may be a live emulator (trace.NewLive) or
// a recorded trace reader — both produce identical results; a fresh source
// must be supplied for a fresh run. Run first resets s.Mem, so the run
// starts cold and its result depends only on the stream and the machine.
func (s *Sim) Run(src trace.Source, maxInsts uint64) (Result, error) {
	s.Mem.Reset()
	statics := staticsFor(src)
	rs := acquireState(&s.Cfg)
	defer releaseState(rs)

	var res Result
	if _, err := s.runSpan(rs, src, statics, &res, maxInsts, s.Obs); err != nil {
		return res, err
	}

	res.Cycles = rs.lastCommit + 1
	res.Insts = rs.idx
	if rs.idx == 0 {
		// Nothing committed: the whole (degenerate) run was front-end time.
		res.Profile.Frontend = res.Cycles
	}
	res.Mem = s.Mem.Stats()
	return res, src.Err()
}

// runSpan advances the detailed pipeline until rs.idx reaches limit, the
// stream ends (more == false) or the source faults. Counters and profile
// buckets accumulate into res; Cycles/Insts/Mem finalisation is the
// caller's job, which is what lets Run and the sampled-window controller
// share the exact same loop.
//
// The stream arrives in column batches (nextSpanBatch), and the span walks
// each only up to limit, so it leaves its source positioned exactly at
// limit. Each record costs one statics lookup; its effective address and
// stride come from the batch's sparse columns in stream order, and the
// next record's static index from the source's Flow.
func (s *Sim) runSpan(rs *runState, src trace.Source, statics []staticInst, res *Result, limit uint64, observer obs.Observer) (more bool, err error) {
	cfg := &s.Cfg
	memModel := s.Mem

	pred, targets := rs.pred, rs.targets
	ports := rs.ports
	fams := [numFams][]int64{
		famInt: rs.intUnits, famIntComplex: rs.intUnits[cfg.IntSimple:],
		famFP: rs.fpUnits, famFPComplex: rs.fpUnits[cfg.FPSimple:],
		famMed: rs.medUnits, famMedComplex: rs.medUnits[cfg.MedSimple:],
	}
	dispatchSlots, commitSlots := &rs.dispatchSlots, &rs.commitSlots
	issueSlots := rs.issueSlots
	robRing, lsqRing := rs.robRing, rs.lsqRing
	robHead, lsqHead := rs.robHead, rs.lsqHead
	rename := &rs.rename
	lastWriter := &rs.lastWriter
	stores := rs.stores

	fetchCycle, lastDispatch, lastCommit := rs.fetchCycle, rs.lastDispatch, rs.lastCommit
	fetchUsed := rs.fetchUsed
	idx := rs.idx
	prof := &res.Profile
	profFrontier, redirectCycle := rs.profFrontier, rs.redirectCycle

	width, frontDepth := cfg.Width, int64(cfg.FrontDepth)
	vecRate := cfg.MemPorts * cfg.MemPortLanes
	allPorts := memModel.VectorReservesAllPorts()

	// Observer scratch, hoisted out of the loop: memBefore and profBefore
	// only hold meaningful snapshots within one iteration, guarded by
	// observer != nil.
	var memBefore mem.Stats
	var profBefore obs.Profile
	byClass0 := res.ByClass

	rd, _ := src.(*trace.Reader)
	flow := src.Flow()
	more = true
loop:
	for idx < limit {
		b, n := nextSpanBatch(src, rd, limit-idx)
		if n == 0 {
			more = false
			break
		}
		eaI, strI := 0, 0
		off := int(b.First) // record k's static index is k + off (see warmRecords)
		for k, meta := range b.Meta[:n] {
			si := k + off
			st := &statics[si]
			res.ByClass[st.class]++
			vl := int(meta &^ trace.MetaTaken)
			taken := meta&trace.MetaTaken != 0
			isMem := st.mem != memNone
			var ea uint64
			var stride int64
			if isMem {
				ea = uint64(b.EA[eaI])
				eaI++
				if st.mem == memVector {
					stride = b.Stride[strI]
					strI++
				}
			}
			size := int(st.size)

			// ---- fetch ----
			if fetchUsed >= width {
				fetchCycle++
				fetchUsed = 0
			}
			f := fetchCycle
			fetchUsed++

			// ---- dispatch (rename + ROB/LSQ allocation) ----
			earliest := f + frontDepth
			frontWait := earliest - lastDispatch // fetch arrived behind dispatch
			if frontWait < 0 {
				frontWait = 0
			}
			if earliest < lastDispatch {
				earliest = lastDispatch
			}
			flowEarliest := earliest
			if c := robRing[robHead]; c+1 > earliest {
				earliest = c + 1
			}
			if isMem {
				if c := lsqRing[lsqHead]; c+1 > earliest {
					earliest = c + 1
				}
			}
			if st.dstKey >= 0 { // a bounded rename ring must have a free register
				if r := &rename[st.dstKind]; r.commits != nil {
					if c := r.commits[r.head]; c+1 > earliest {
						earliest = c + 1
					}
				}
			}
			structWait := earliest - flowEarliest // ROB/LSQ/rename back-pressure
			dispatch := dispatchSlots.take(earliest)
			frontWait += dispatch - earliest // dispatch-width overflow
			lastDispatch = dispatch
			issueSlots.advance(dispatch)

			// ---- operand readiness ----
			ready := max(dispatch+1,
				lastWriter[st.srcKeys[0]], lastWriter[st.srcKeys[1]],
				lastWriter[st.srcKeys[2]], lastWriter[st.srcKeys[3]])

			// ---- issue + execute ----
			// Alongside the timing, each arm records the cycle the
			// instruction had its operands and a free unit (t0) and the cycle
			// it won an issue slot (issueAt), from which the attribution
			// below derives its waits; allPortsWait is the extra wait of an
			// access that takes every port, and memWait the wait for load
			// data. A single-unit reservation executes from its issue cycle.
			var complete, issueAt, t0, allPortsWait, memWait int64
			if observer != nil {
				profBefore = *prof
				if isMem {
					memBefore = memModel.Stats()
				}
			}
			switch st.class {
			case isa.ClassNop:
				complete = ready
				issueAt, t0 = ready, ready

			case isa.ClassIntSimple, isa.ClassIntComplex, isa.ClassFPSimple, isa.ClassFPComplex,
				isa.ClassMedSimple, isa.ClassMedComplex, isa.ClassBranch, isa.ClassCtl,
				isa.ClassMomSimple, isa.ClassMomComplex:
				// One unit of the family, issued as issue does, for one
				// cycle or, for a matrix operation, for its VL word-operations
				// at MedLanes words per cycle: the result is architecturally
				// complete when the last word drains. take runs only when the
				// probed cell is full or outside the issue window.
				occ := int64(1)
				if st.matrix {
					occ = occupancy(vl, cfg.MedLanes)
					res.WordOps += uint64(vl)
				}
				u := leastBusy(fams[st.fam])
				t0 = max(ready, *u)
				if issueAt = t0; !issueSlots.tryTake(t0) {
					issueAt = issueSlots.take(t0)
				}
				*u = issueAt + occ
				complete = issueAt + occ - 1 + st.lat

			case isa.ClassLoad:
				occ := int64(1)
				if unaligned(ea, size) {
					occ = 2 // the port splits it into two aligned accesses
				}
				issueAt, t0 = issue(issueSlots, leastBusy(ports), ready, occ)
				agDone := issueAt + occ
				complete = stores.loadDone(ea, ea+uint64(size), memModel.Load(agDone, ea, size))
				memWait = complete - agDone

			case isa.ClassStore:
				issueAt, t0 = issue(issueSlots, leastBusy(ports), ready, 1)
				complete = max(issueAt+1, ready)
				stores.add(ea, ea+uint64(size), complete)

			case isa.ClassMomLoad, isa.ClassMomStore:
				occ := occupancy(vl, vecRate)
				start := int64(0)
				if allPorts {
					start, issueAt, t0 = issueAll(issueSlots, ports, ready, occ)
					allPortsWait = start - issueAt
				} else {
					issueAt, t0 = issue(issueSlots, leastBusy(ports), ready, 1)
					start = issueAt
				}
				lo, hi := vecRange(ea, stride, vl, size)
				if st.class == isa.ClassMomLoad {
					complete = stores.loadDone(lo, hi, memModel.LoadVector(start+1, ea, stride, vl, vecRate))
					if memWait = complete - (start + occ); memWait < 0 {
						memWait = 0
					}
				} else {
					complete = max(start+occ, ready)
					stores.add(lo, hi, complete)
				}
				res.WordOps += uint64(vl)

			default:
				err = fmt.Errorf("cpu: unhandled class %v", st.class)
				break loop
			}

			// ---- commit (in order, width per cycle) ----
			preCommit := commitSlots.take(max(complete+1, lastCommit))
			commit := preCommit
			switch st.class {
			case isa.ClassStore:
				if acc := memModel.Store(commit, ea, size); acc > commit {
					commit = commitSlots.take(acc)
				}
			case isa.ClassMomStore:
				if acc := memModel.StoreVector(commit, ea, stride, vl, vecRate); acc > commit {
					commit = commitSlots.take(acc)
				}
			}

			// ---- cycle attribution ----
			// The commit frontier advanced adv cycles while graduating this
			// instruction: one is the useful commit cycle, any gap between the
			// store-accept push and preCommit stalled on the write buffer, and
			// the rest is charged to the stage this instruction waited on
			// longest (ties go to the earlier pipeline stage in list order).
			if adv := commit - profFrontier; adv > 0 {
				prof.Commit++
				execGap := preCommit - profFrontier - 1
				if execGap < 0 {
					execGap = 0
				}
				if storeGap := adv - 1 - execGap; storeGap > 0 {
					prof.StoreCommit += storeGap
				}
				if execGap > 0 {
					cause, best := &prof.DepLatency, ready-(dispatch+1)
					if frontWait > best {
						cause, best = &prof.Frontend, frontWait
						if f == redirectCycle {
							cause = &prof.Mispredict
						}
					}
					if structWait > best {
						cause, best = &prof.RenameROB, structWait
					}
					if issWait := issueAt - t0; issWait > best {
						cause, best = &prof.IssueQueue, issWait
					}
					if fuWait := t0 - ready + allPortsWait; fuWait > best {
						cause, best = &prof.FU, fuWait
					}
					if memWait > best {
						cause = &prof.MemWait
					}
					*cause += execGap
				}
			}
			profFrontier = commit
			lastCommit = commit
			robRing[robHead] = commit
			if robHead++; robHead == len(robRing) {
				robHead = 0
			}
			if isMem {
				lsqRing[lsqHead] = commit
				if lsqHead++; lsqHead == len(lsqRing) {
					lsqHead = 0
				}
			}
			if st.dstKey >= 0 {
				lastWriter[st.dstKey] = complete
				if r := &rename[st.dstKind]; r.commits != nil {
					r.commits[r.head] = commit
					if r.head++; r.head == len(r.commits) {
						r.head = 0
					}
				}
			}

			if observer != nil {
				emitEvent(observer, memModel, &memBefore, &profBefore, prof, &rs.ev, idx, si, vl, taken, st, isMem,
					f, dispatch, issueAt, complete, commit)
			}

			// ---- branch resolution and fetch redirect ----
			if st.class == isa.ClassBranch {
				predTaken := st.isBR || pred.predict(si)
				btbHit := targets.hit(si)
				if !st.isBR {
					pred.update(si, taken)
				}
				if taken {
					targets.insert(si)
					off = int(flow.Next(int32(si), meta)) - k - 1
				}
				switch {
				case taken != predTaken:
					res.Mispredicts++
					r := complete + 1 + int64(cfg.MispredictPenalty)
					if r > fetchCycle {
						fetchCycle = r
						redirectCycle = r
					}
					fetchUsed = 0
				case taken && btbHit:
					// Correctly predicted taken: redirect next cycle, the taken
					// branch ends this fetch group.
					fetchCycle = f + 1
					fetchUsed = 0
				case taken: // predicted taken but BTB miss: decode-time bubble
					res.BTBMisses++
					fetchCycle = f + 2
					fetchUsed = 0
				}
			}
			idx++
		}
		if n < len(b.Meta) {
			rd.Seek(rd.CursorAt(b, n, eaI, strI, int32(n+off)))
		}
	}

	rs.robHead, rs.lsqHead = robHead, lsqHead
	rs.fetchCycle, rs.lastDispatch, rs.lastCommit = fetchCycle, lastDispatch, lastCommit
	rs.fetchUsed = fetchUsed
	rs.idx = idx
	rs.profFrontier, rs.redirectCycle = profFrontier, redirectCycle
	res.countByClass(&byClass0)
	return more, err
}

// nextSpanBatch reads the next batch of a span that needs want more
// records (want > 0) and returns it with how many of its records the span
// takes (0 at the end of the stream). rd is src when src is a recorded
// trace's reader, and nil otherwise. A live source is asked for exactly
// want. A recorded trace is asked for its whole chunk tail, which NextBatch
// hands out without counting the tail's memory records: a span that takes
// fewer records than the batch holds counts them as it walks them, and
// seeks rd back to where it stopped (Reader.CursorAt).
func nextSpanBatch(src trace.Source, rd *trace.Reader, want uint64) (trace.Batch, int) {
	if rd == nil {
		b := src.NextBatch(want)
		return b, len(b.Meta)
	}
	b := rd.NextBatch(math.MaxUint64)
	return b, int(min(uint64(len(b.Meta)), want))
}

// countByClass adds the counters that follow from the class counts a span
// graduated (ByClass now, less before): loads, stores, branches, and one
// word operation per scalar media, load or store instruction. The loop
// itself adds only the VL words of matrix instructions.
func (r *Result) countByClass(before *[16]uint64) {
	var n [16]uint64
	for i := range n {
		n[i] = r.ByClass[i] - before[i]
	}
	r.Loads += n[isa.ClassLoad] + n[isa.ClassMomLoad]
	r.Stores += n[isa.ClassStore] + n[isa.ClassMomStore]
	r.Branches += n[isa.ClassBranch]
	r.WordOps += n[isa.ClassMedSimple] + n[isa.ClassMedComplex] + n[isa.ClassLoad] + n[isa.ClassStore]
}

// emitEvent assembles and publishes one instruction's observability event.
// It is deliberately out-of-line (and must stay that way): keeping the
// event assembly out of Run's loop body keeps the nil-observer fast path's
// code layout untouched.
//
// The event's attribution fields are the change the instruction made to
// the run's profile (prof against profBefore): its commit cycle, any
// write-buffer stall, and any exec gap, which the loop charges to exactly
// one cause bucket. Reading them back here keeps their bookkeeping out of
// the loop.
//
// The event struct is written through a caller-owned scratch pointer (the
// obs contract lets the core reuse backing storage), so the observed path
// allocates nothing per instruction either.
//
//go:noinline
func emitEvent(observer obs.Observer, memModel mem.Model, memBefore *mem.Stats,
	profBefore, prof *obs.Profile,
	ev *obs.Event, idx uint64, si, vl int, taken bool, st *staticInst, isMem bool,
	f, dispatch, issueAt, complete, commit int64) {
	d := *prof
	d.Sub(*profBefore)
	*ev = obs.Event{
		Seq: idx, PC: si, Class: st.class, VL: vl, Taken: taken,
		Fetch: f, Dispatch: dispatch, Issue: issueAt,
		Complete: complete, Commit: commit,
		Committed: d.Commit, Bucket: obs.BucketDepLatency, StoreGap: d.StoreCommit,
	}
	causes := [obs.NumBuckets]int64{
		obs.BucketFrontend: d.Frontend, obs.BucketMispredict: d.Mispredict,
		obs.BucketRenameROB: d.RenameROB, obs.BucketIssueQueue: d.IssueQueue,
		obs.BucketFU: d.FU, obs.BucketMemWait: d.MemWait, obs.BucketDepLatency: d.DepLatency,
	}
	for b, gap := range causes {
		if gap > 0 {
			ev.Bucket, ev.ExecGap = obs.Bucket(b), gap
		}
	}
	if isMem {
		ev.Mem = mem.Diff(*memBefore, memModel.Stats())
	}
	observer.Observe(ev)
}

// occupancy returns how many cycles n elements occupy at rate per cycle.
func occupancy(n, rate int) int64 {
	if n < 1 {
		return 1
	}
	if rate < 1 {
		rate = 1
	}
	return int64((n + rate - 1) / rate)
}

// unaligned reports whether a scalar access is misaligned for its size,
// which is 1, 2, 4 or 8 bytes.
func unaligned(addr uint64, size int) bool {
	return addr&uint64(size-1) != 0
}
