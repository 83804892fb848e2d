// Package trace implements the capture-once / replay-many layer between the
// functional emulator and the timing simulator. The paper instrumented each
// binary once with ATOM and fed the recorded trace to the Jinks timing
// simulator for every machine configuration; this package plays the ATOM
// role: Capture runs the emulator to completion and records the dynamic
// instruction stream in a compact chunked encoding, and any number of
// Readers replay it — concurrently — into cpu.Sim.Run.
//
// The timing model consumes the Source interface, in column batches
// (NextBatch). A recorded trace (Reader) feeds every timing run of a
// registered workload, handing out read-only views of its chunk columns;
// the live emulator (Live) implements Source too, as the oracle the tests
// check replay against and for programs outside the workload set. Replay
// and live emulation agree record for record, and a timing run publishes
// the identical obs.Event stream from either (enforced by
// TestTraceReplayEquivalence and TestTraceReplayEventEquivalence in the
// root package).
package trace

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Source is a stream of dynamic instructions plus the program they came
// from. It is implemented by the live emulator (NewLive) and by recorded
// traces (Trace.Reader).
type Source interface {
	// Program returns the static program the stream executes.
	Program() *isa.Program
	// Next returns the next dynamic instruction; ok is false at end of
	// stream (or on a fault; check Err).
	Next() (d emu.Dyn, ok bool)
	// NextBatch returns the next run of at most max records (max > 0) in
	// column form. An empty batch means the end of the stream (or a fault;
	// check Err). The batch is read-only and valid until the next call.
	NextBatch(max uint64) Batch
	// Flow returns the program's control flow, which derives the static
	// index of each batch record after the first.
	Flow() Flow
	// Err reports the fault that terminated the stream, if any.
	Err() error
}

// Batch is a run of consecutive records in the chunk encoding, the column
// form the emulator records (emu.Columns): one meta byte (vector length |
// MetaTaken) per record, one four-byte effective address per memory record
// and one stride per vector-memory record, both in stream order, and the
// static index of the first record. Its length is len(Meta); the static
// index of each later record follows from its predecessor's by Flow.Next.
// A walker widens each address to the uint64 the memory model takes.
type Batch = emu.Columns

// Flow is a program's control flow as replay derives it: where each static
// instruction leads when taken, its target for a branch and the next
// instruction for anything else. Every control transfer in the modelled
// ISAs is a direct branch, so the record after one at static index si sits
// at si's branch target when si was a taken branch, and at si+1 otherwise.
// That is the one rule by which every walker of a trace or a batch derives
// the static indices a trace does not store; a walker may therefore apply
// it at branch records alone and count up elsewhere.
type Flow []int32

// NewFlow returns the control flow of p.
func NewFlow(p *isa.Program) Flow {
	f := make(Flow, len(p.Insts))
	for i := range p.Insts {
		f[i] = int32(i + 1)
		if in := &p.Insts[i]; in.Op.Info().Class == isa.ClassBranch {
			f[i] = int32(in.Target)
		}
	}
	return f
}

// Next returns the static index of the record after one at static index si
// whose meta byte is meta. It reads f only for a taken record.
func (f Flow) Next(si int32, meta uint8) int32 {
	if meta&MetaTaken != 0 {
		return f[si]
	}
	return si + 1
}

// Live adapts a functional emulator into a Source (the interleaved
// emulate-and-time path). It is single-use: the machine advances as the
// timing model consumes it.
type Live struct {
	m    *emu.Machine
	flow Flow
	buf  Batch // NextBatch's columns, reused by every call
}

// liveBatchRecords caps how many instructions one Live.NextBatch call
// emulates, which keeps its buffer small.
const liveBatchRecords = 256

// NewLive wraps a machine as a Source.
func NewLive(m *emu.Machine) *Live { return &Live{m: m, flow: NewFlow(m.Prog)} }

// Program returns the machine's program.
func (l *Live) Program() *isa.Program { return l.m.Prog }

// Flow returns the control flow of the machine's program.
func (l *Live) Flow() Flow { return l.flow }

// Next executes one instruction.
func (l *Live) Next() (emu.Dyn, bool) { return l.m.Step() }

// NextBatch executes up to min(max, 256) instructions into a private
// buffer and returns them as a batch; it stops early at the end of the
// program or on a fault.
func (l *Live) NextBatch(max uint64) Batch {
	b := &l.buf
	b.Meta, b.EA, b.Stride = b.Meta[:0], b.EA[:0], b.Stride[:0]
	l.m.Record(min(max, liveBatchRecords), b)
	return *b
}

// Err returns the machine fault, if any.
func (l *Live) Err() error { return l.m.Err }

// chunkRecords is the number of records per chunk. Chunks keep the capture
// allocation pattern flat: no giant-slice doubling, no per-record
// allocation, and replay walks each column sequentially.
const chunkRecords = 1 << 15

// MetaTaken flags a taken branch in a record's meta byte; the low five
// bits hold the vector length (0..MaxVL).
const MetaTaken = emu.MetaTaken

// A chunk stores chunkRecords dynamic instructions as struct-of-slices
// columns. Only what the static program cannot rebuild is stored: the
// vector length and branch outcome (one meta byte), only for the records
// that need them the effective address and vector stride, and the static
// index of the first record, from which Flow derives the others. Everything
// else in emu.Dyn (opcode, class, branch target, element size/count) is
// reconstructed from the static program during replay.
type chunk struct {
	first  int32    // static instruction index of the first record
	meta   []uint8  // VL | MetaTaken, per record
	ea     []uint32 // effective address, per memory record
	stride []int64  // byte stride, per vector-memory record
}

// ramSize is the bytes a chunk's columns hold, in memory and in an artifact
// frame's payload: one meta byte per record, four per effective address
// and eight per stride.
func ramSize(nrec, nea, nstr int) int64 {
	return int64(nrec) + 4*int64(nea) + 8*int64(nstr)
}

// Memory kind of a static instruction, for replay reconstruction.
const (
	memNone = iota
	memScalar
	memVector
)

// sinst is the per-static-instruction table used to rebuild emu.Dyn records.
type sinst struct {
	op    isa.Opcode
	class isa.Class
	size  uint8
	mem   uint8
}

// Trace is a recorded dynamic instruction stream. The recording itself is
// immutable after Capture returns, so any number of Readers may replay it
// concurrently; the aux map is a synchronized side cache for derived
// artifacts (see Aux) and never affects replay.
type Trace struct {
	prog   *isa.Program
	static []sinst
	flow   Flow
	chunks []chunk
	n      uint64
	bytes  int64 // the chunks' column bytes (ramSize)

	auxMu sync.Mutex
	aux   map[any]any
}

// Aux returns the value cached under key by SetAux. Consumers use it to
// memoize expensive artifacts derived deterministically from the recording
// (decoded static tables, sampled-simulation checkpoint libraries) so
// repeated replays of the same trace pay the derivation once. Keys follow
// the context.Value convention: package-private struct types.
func (t *Trace) Aux(key any) (any, bool) {
	t.auxMu.Lock()
	defer t.auxMu.Unlock()
	v, ok := t.aux[key]
	return v, ok
}

// SetAux caches val under key for Aux, unless a value is cached there
// already, and returns the cached value: when concurrent computations of
// one key race to store, the first store wins and every caller continues
// with it. Values must be deterministic functions of the recording and key
// and must be safe for concurrent use.
func (t *Trace) SetAux(key, val any) any {
	t.auxMu.Lock()
	defer t.auxMu.Unlock()
	if v, ok := t.aux[key]; ok {
		return v
	}
	if t.aux == nil {
		t.aux = make(map[any]any)
	}
	t.aux[key] = val
	return val
}

// ErrTooLarge is returned by Capture when the trace would hold more than
// the caller's maxBytes bound in memory.
var ErrTooLarge = errors.New("trace: exceeds memory budget")

// buildStatic precomputes the replay reconstruction table for a program.
func buildStatic(p *isa.Program) []sinst {
	st := make([]sinst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		info := in.Op.Info()
		s := &st[i]
		s.op, s.class = in.Op, info.Class
		switch info.Class {
		case isa.ClassLoad, isa.ClassStore:
			s.mem, s.size = memScalar, uint8(in.Op.ElemSize())
		case isa.ClassMomLoad, isa.ClassMomStore:
			s.mem, s.size = memVector, uint8(in.Op.ElemSize())
		}
	}
	return st
}

// CaptureInfo describes one finished capture attempt to an observer
// registered with SetCaptureHook: which program was recorded, when the
// capture started and how long it ran, and — on success — the in-memory
// size (Trace.Bytes) and record count. Err is non-nil when the capture
// failed.
type CaptureInfo struct {
	Program  string
	Start    time.Time
	Duration time.Duration
	Bytes    int64
	Records  uint64
	Err      error
}

// captureHook is consulted once per capture attempt; nil costs one atomic
// load, so instrumentation is free when nobody listens.
var captureHook atomic.Pointer[func(CaptureInfo)]

// SetCaptureHook registers a process-wide observer called after every
// Capture with its span: start time, wall-clock duration, outcome. The
// momserved flight recorder uses it to attribute trace-capture time inside
// job timelines. Pass nil to remove the hook. The hook must be safe for
// concurrent calls.
func SetCaptureHook(h func(CaptureInfo)) {
	if h == nil {
		captureHook.Store(nil)
		return
	}
	captureHook.Store(&h)
}

// Capture runs the machine to completion, recording its dynamic stream.
// It fails if the program faults (an effective address above 32 bits,
// emu.ErrWideAddress, included), exceeds maxSteps dynamic instructions, or
// (when maxBytes > 0) the trace would hold more than maxBytes in memory
// (Trace.Bytes).
func Capture(m *emu.Machine, maxSteps uint64, maxBytes int64) (tr *Trace, err error) {
	if h := captureHook.Load(); h != nil {
		start := time.Now()
		defer func() {
			info := CaptureInfo{Program: m.Prog.Name, Start: start, Duration: time.Since(start), Err: err}
			if tr != nil {
				info.Bytes, info.Records = tr.bytes, tr.n
			}
			(*h)(info)
		}()
	}
	return capture(m, maxSteps, maxBytes)
}

// scratchPool keeps the chunk-sized scratch batches of finished captures
// for later ones: a capture then allocates only its chunks' exact copies,
// however short its program, and a long one no longer pays for a fresh
// scratch either. (A scratch grown by append from empty instead costs
// about 20 reallocations of each column on the way to one chunk.)
var scratchPool = sync.Pool{New: func() any {
	return &Batch{
		Meta:   make([]uint8, 0, chunkRecords),
		EA:     make([]uint32, 0, chunkRecords),
		Stride: make([]int64, 0, chunkRecords),
	}
}}

// capture records the machine's stream chunk by chunk: the emulator
// appends each chunk's columns to one scratch batch from scratchPool,
// which is copied out at its exact sizes when the chunk fills or the
// program ends.
func capture(m *emu.Machine, maxSteps uint64, maxBytes int64) (*Trace, error) {
	t := &Trace{prog: m.Prog}
	buf := scratchPool.Get().(*Batch)
	defer scratchPool.Put(buf)
	// A capture that failed mid-chunk put its scratch back unflushed.
	buf.Meta, buf.EA, buf.Stride = buf.Meta[:0], buf.EA[:0], buf.Stride[:0]
	for !m.Done() && t.n < maxSteps {
		t.n += m.Record(min(chunkRecords-uint64(len(buf.Meta)), maxSteps-t.n), buf)
		if maxBytes > 0 && t.bytes+ramSize(len(buf.Meta), len(buf.EA), len(buf.Stride)) > maxBytes {
			return nil, fmt.Errorf("%w: %s needs more than %d bytes", ErrTooLarge, m.Prog.Name, maxBytes)
		}
		if len(buf.Meta) == chunkRecords {
			t.closeChunk(buf)
		}
	}
	// After maxSteps records, the budget is exceeded if one more
	// instruction executes; if it faults instead, the fault is the error.
	if !m.Done() && m.Record(1, nil) == 1 {
		return nil, fmt.Errorf("trace: %s exceeded %d steps", m.Prog.Name, maxSteps)
	}
	if m.Err != nil {
		return nil, m.Err
	}
	if len(buf.Meta) > 0 {
		t.closeChunk(buf)
	}
	t.static, t.flow = buildStatic(m.Prog), NewFlow(m.Prog)
	return t, nil
}

// closeChunk appends the scratch batch to the trace as a chunk whose
// columns are copied out at their exact sizes, and empties the scratch.
// An empty column stays nil, so no chunk keeps the scratch alive.
func (t *Trace) closeChunk(buf *Batch) {
	t.chunks = append(t.chunks, chunk{
		first:  buf.First,
		meta:   append([]uint8(nil), buf.Meta...),
		ea:     append([]uint32(nil), buf.EA...),
		stride: append([]int64(nil), buf.Stride...),
	})
	t.bytes += ramSize(len(buf.Meta), len(buf.EA), len(buf.Stride))
	buf.Meta, buf.EA, buf.Stride = buf.Meta[:0], buf.EA[:0], buf.Stride[:0]
}

// Program returns the traced program.
func (t *Trace) Program() *isa.Program { return t.prog }

// Records returns the number of dynamic instructions recorded.
func (t *Trace) Records() uint64 { return t.n }

// Chunks returns the number of storage chunks.
func (t *Trace) Chunks() int { return len(t.chunks) }

// Bytes returns what the trace holds in memory: its chunks' columns, one
// meta byte per record, four bytes per effective address and eight per
// stride. Capture's byte budget bounds the same quantity, and the artifact
// stores the same columns (EncodedSize).
func (t *Trace) Bytes() int64 { return t.bytes }

// Reader returns a fresh replay cursor over the trace. Readers are
// independent: many may replay the same trace concurrently.
func (t *Trace) Reader() *Reader {
	r := &Reader{t: t}
	r.enter(0)
	return r
}

// Cursor is an O(1) resume point for a position a Reader has already
// reached: it carries the sparse ea/stride column offsets and the static
// index of the record there, so reopening there walks nothing. Capture it
// with Reader.Cursor (or Reader.CursorAt, inside the last batch) at the
// position of interest, and reopen any number of independent readers there
// with ReaderAtCursor, or move one with Seek.
type Cursor struct {
	pos       uint64
	eaI, strI int
	si        int32
}

// Pos returns the stream position the cursor marks.
func (c Cursor) Pos() uint64 { return c.pos }

// Cursor captures the reader's current position for ReaderAtCursor.
func (r *Reader) Cursor() Cursor { return Cursor{pos: r.pos, eaI: r.eaI, strI: r.strI, si: r.si} }

// CursorAt returns the cursor at record k of b, the batch the reader's
// last NextBatch call returned (0 <= k <= len(b.Meta)), where ea and
// strides count b's memory and vector-memory records before record k and
// si is record k's static index, as the walker derived it. A consumer that
// walks a whole batch can so mark positions inside it without asking for
// shorter batches.
func (r *Reader) CursorAt(b Batch, k, ea, strides int, si int32) Cursor {
	return Cursor{
		pos:  r.pos - uint64(len(b.Meta)-k),
		eaI:  r.eaI - (len(b.EA) - ea),
		strI: r.strI - (len(b.Stride) - strides),
		si:   si,
	}
}

// ReaderAtCursor opens a new reader at a previously captured cursor in
// O(1). The cursor must have been captured from a reader over the same
// trace.
func (t *Trace) ReaderAtCursor(c Cursor) *Reader {
	r := &Reader{t: t}
	r.Seek(c)
	return r
}

// Seek moves the reader to a cursor captured from a reader over the same
// trace, forward or back, in O(1). Pos then reads the cursor's position.
func (r *Reader) Seek(c Cursor) {
	r.pos, r.eaI, r.strI, r.si = c.pos, c.eaI, c.strI, c.si
	r.ci = int(c.pos / chunkRecords)
	r.ri = int(c.pos % chunkRecords)
	if r.ri == 0 {
		// A cursor captured at the end of a full chunk carries that chunk's
		// column ends; the reader starts the next chunk.
		r.enter(r.ci)
	}
}

// Reader replays a recorded trace as a Source.
type Reader struct {
	t    *Trace
	ci   int    // chunk index
	ri   int    // record index within chunk
	eaI  int    // cursor into chunk.ea
	strI int    // cursor into chunk.stride
	si   int32  // static index of record ri, while ri is inside the chunk
	pos  uint64 // records consumed (Next, NextBatch, WarmNext)
}

// enter moves the reader to the first record of chunk ci, or past the end
// when ci is the chunk count.
func (r *Reader) enter(ci int) {
	r.ci, r.ri, r.eaI, r.strI = ci, 0, 0, 0
	if ci < len(r.t.chunks) {
		r.si = r.t.chunks[ci].first
	}
}

// Program returns the traced program.
func (r *Reader) Program() *isa.Program { return r.t.prog }

// Flow returns the control flow of the traced program.
func (r *Reader) Flow() Flow { return r.t.flow }

// Trace returns the recording this reader replays, so a consumer handed a
// Reader can open further cursors over the same trace (see
// Trace.ReaderAtCursor).
func (r *Reader) Trace() *Trace { return r.t }

// Err always returns nil: only complete, fault-free runs are recorded.
func (r *Reader) Err() error { return nil }

// Pos returns how many records have been consumed so far, whether by Next,
// NextBatch or WarmNext.
func (r *Reader) Pos() uint64 { return r.pos }

// walk moves the reader from record ri to record hi of its chunk, counting
// the memory records it passes into the ea/stride cursors and deriving the
// static index at hi.
func (r *Reader) walk(hi int) {
	static, flow, si := r.t.static, r.t.flow, r.si
	eaI, strI := r.eaI, r.strI
	for _, meta := range r.t.chunks[r.ci].meta[r.ri:hi] {
		if m := static[si].mem; m != memNone {
			eaI++
			if m == memVector {
				strI++
			}
		}
		si = flow.Next(si, meta)
	}
	r.ri, r.eaI, r.strI, r.si = hi, eaI, strI, si
}

// WarmSink receives the warming-relevant content of fast-forwarded records
// (see Reader.WarmNext): branch outcomes for predictor/BTB training and
// memory footprints for cache-tag touches. ALU records carry no long-lived
// state and are never delivered.
type WarmSink interface {
	// WarmBranch reports a branch record: its static index and outcome.
	WarmBranch(si int, taken bool)
	// WarmScalar reports a scalar memory record.
	WarmScalar(ea uint64, size int, store bool)
	// WarmVector reports a vector memory record (nelem = vector length).
	WarmVector(ea uint64, stride int64, nelem int, store bool)
}

// WarmNext advances up to n records, feeding each branch and memory record
// to sink and discarding the rest after a single static-table class check.
// Sampled simulation fast-forwards through NextBatch instead; WarmNext is
// kept for perfbench's drain and memory-touch probes. It returns how many
// records were consumed (fewer than n only at end of stream).
func (r *Reader) WarmNext(n uint64, sink WarmSink) uint64 {
	var done uint64
	static, flow := r.t.static, r.t.flow
	for done < n {
		if r.ci >= len(r.t.chunks) {
			break
		}
		c := &r.t.chunks[r.ci]
		if r.ri >= len(c.meta) {
			r.enter(r.ci + 1)
			continue
		}
		metas := c.meta[r.ri : r.ri+int(min(n-done, uint64(len(c.meta)-r.ri)))]
		off := int(r.si) // record k of metas has static index k + off, as in the timing core
		for k, meta := range metas {
			si := k + off
			s := &static[si]
			switch {
			case s.mem == memScalar:
				sink.WarmScalar(uint64(c.ea[r.eaI]), int(s.size), s.class == isa.ClassStore)
				r.eaI++
			case s.mem == memVector:
				sink.WarmVector(uint64(c.ea[r.eaI]), c.stride[r.strI], int(meta&^MetaTaken), s.class == isa.ClassMomStore)
				r.eaI++
				r.strI++
			case s.class == isa.ClassBranch:
				sink.WarmBranch(si, meta&MetaTaken != 0)
				off = int(flow.Next(int32(si), meta)) - k - 1
			}
		}
		r.ri += len(metas)
		r.si = int32(len(metas) + off)
		done += uint64(len(metas))
	}
	r.pos += done
	return done
}

// Next reconstructs the next dynamic instruction from the trace.
func (r *Reader) Next() (emu.Dyn, bool) {
	for {
		if r.ci >= len(r.t.chunks) {
			return emu.Dyn{}, false
		}
		if r.ri < len(r.t.chunks[r.ci].meta) {
			break
		}
		r.enter(r.ci + 1)
	}
	c := &r.t.chunks[r.ci]
	si, meta := r.si, c.meta[r.ri]
	r.si = r.t.flow.Next(si, meta)
	r.ri++
	r.pos++
	s := &r.t.static[si]
	d := emu.Dyn{
		SI:    int(si),
		Op:    s.op,
		Class: s.class,
		Taken: meta&MetaTaken != 0,
		VL:    int(meta &^ MetaTaken),
	}
	if s.class == isa.ClassBranch {
		d.Target = int(r.t.flow[si])
	}
	switch s.mem {
	case memScalar:
		d.EA = uint64(c.ea[r.eaI])
		r.eaI++
		d.NElem, d.Size = 1, int(s.size)
	case memVector:
		d.EA = uint64(c.ea[r.eaI])
		r.eaI++
		d.Stride = c.stride[r.strI]
		r.strI++
		d.NElem, d.Size = d.VL, int(s.size)
	}
	return d, true
}

// NextBatch returns the next run of at most max records as read-only views
// of the current chunk's columns: no copy, no allocation. A batch never
// crosses a chunk boundary, and an empty batch means the end of the
// stream. A batch that runs to the chunk's end takes the rest of its
// ea/stride columns; a shorter one walks its records (one static-table
// lookup and one Flow step each) to count its memory records and derive
// the static index after its last, which keeps the reader aligned for
// whatever reads next. A consumer that walks the records anyway and may
// stop inside a chunk can skip that walk: it asks for the whole chunk tail
// (any max at least the records the chunk has left) and, where it stops,
// seeks back with Seek(CursorAt(...)), as the timing core's spans do.
func (r *Reader) NextBatch(max uint64) Batch {
	for r.ci < len(r.t.chunks) && r.ri == len(r.t.chunks[r.ci].meta) {
		r.enter(r.ci + 1)
	}
	if r.ci >= len(r.t.chunks) || max == 0 {
		return Batch{}
	}
	c := &r.t.chunks[r.ci]
	lo, hi := r.ri, len(c.meta)
	if uint64(hi-lo) > max {
		hi = lo + int(max)
	}
	first, eaLo, strLo := r.si, r.eaI, r.strI
	if hi < len(c.meta) {
		r.walk(hi)
	} else {
		r.ri, r.eaI, r.strI = hi, len(c.ea), len(c.stride)
	}
	r.pos += uint64(hi - lo)
	return Batch{
		First:  first,
		Meta:   c.meta[lo:hi:hi],
		EA:     c.ea[eaLo:r.eaI:r.eaI],
		Stride: c.stride[strLo:r.strI:r.strI],
	}
}
