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
	// Err reports the fault that terminated the stream, if any.
	Err() error
}

// Batch is a run of consecutive records in the chunk encoding, the column
// form the emulator records (emu.Columns): one static index and one meta
// byte (vector length | MetaTaken) per record, one effective address per
// memory record and one stride per vector-memory record, both in stream
// order.
type Batch = emu.Columns

// Live adapts a functional emulator into a Source (the interleaved
// emulate-and-time path). It is single-use: the machine advances as the
// timing model consumes it.
type Live struct {
	m   *emu.Machine
	buf Batch // NextBatch's columns, reused by every call
}

// liveBatchRecords caps how many instructions one Live.NextBatch call
// emulates, which keeps its buffer small.
const liveBatchRecords = 256

// NewLive wraps a machine as a Source.
func NewLive(m *emu.Machine) *Live { return &Live{m: m} }

// Program returns the machine's program.
func (l *Live) Program() *isa.Program { return l.m.Prog }

// Next executes one instruction.
func (l *Live) Next() (emu.Dyn, bool) { return l.m.Step() }

// NextBatch executes up to min(max, 256) instructions into a private
// buffer and returns them as a batch; it stops early at the end of the
// program or on a fault.
func (l *Live) NextBatch(max uint64) Batch {
	b := &l.buf
	b.SI, b.Meta, b.EA, b.Stride = b.SI[:0], b.Meta[:0], b.EA[:0], b.Stride[:0]
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
// columns. Only the dynamic facts are stored: the static index, the vector
// length and branch outcome (one meta byte), and — only for the records
// that need them — the effective address and vector stride. Everything else
// in emu.Dyn (opcode, class, branch target, element size/count) is
// reconstructed from the static program during replay.
type chunk struct {
	si     []int32  // static instruction index, per record
	meta   []uint8  // VL | MetaTaken, per record
	ea     []uint64 // effective address, per memory record
	stride []int64  // byte stride, per vector-memory record
}

// bytesPerRecord is the fixed per-record cost (si + meta).
const bytesPerRecord = 5

// Memory kind of a static instruction, for replay reconstruction.
const (
	memNone = iota
	memScalar
	memVector
)

// sinst is the per-static-instruction table used to rebuild emu.Dyn records.
type sinst struct {
	op     isa.Opcode
	class  isa.Class
	target int32
	size   uint8
	mem    uint8
}

// Trace is a recorded dynamic instruction stream. The recording itself is
// immutable after Capture returns, so any number of Readers may replay it
// concurrently; the aux map is a synchronized side cache for derived
// artifacts (see Aux) and never affects replay.
type Trace struct {
	prog   *isa.Program
	static []sinst
	chunks []chunk
	n      uint64
	bytes  int64

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

// ErrTooLarge is returned by Capture when the encoded trace would exceed
// the caller's maxBytes bound.
var ErrTooLarge = errors.New("trace: exceeds memory budget")

// buildStatic precomputes the replay reconstruction table for a program.
func buildStatic(p *isa.Program) []sinst {
	st := make([]sinst, len(p.Insts))
	for i := range p.Insts {
		in := &p.Insts[i]
		info := in.Op.Info()
		s := &st[i]
		s.op, s.class, s.target = in.Op, info.Class, int32(in.Target)
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
// capture started and how long it ran, and — on success — the encoded
// size and record count. Err is non-nil when the capture failed.
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
// It fails if the program faults, exceeds maxSteps dynamic instructions, or
// (when maxBytes > 0) the encoding grows past maxBytes.
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
		SI:     make([]int32, 0, chunkRecords),
		Meta:   make([]uint8, 0, chunkRecords),
		EA:     make([]uint64, 0, chunkRecords),
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
	buf.SI, buf.Meta, buf.EA, buf.Stride = buf.SI[:0], buf.Meta[:0], buf.EA[:0], buf.Stride[:0]
	for !m.Done() && t.n < maxSteps {
		t.n += m.Record(min(chunkRecords-uint64(len(buf.SI)), maxSteps-t.n), buf)
		if maxBytes > 0 && t.bytes+frameSize(len(buf.SI), len(buf.EA), len(buf.Stride)) > maxBytes {
			return nil, fmt.Errorf("%w: %s needs more than %d bytes", ErrTooLarge, m.Prog.Name, maxBytes)
		}
		if len(buf.SI) == chunkRecords {
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
	if len(buf.SI) > 0 {
		t.closeChunk(buf)
	}
	t.static = buildStatic(m.Prog)
	return t, nil
}

// closeChunk appends the scratch batch to the trace as a chunk whose
// columns are copied out at their exact sizes, and empties the scratch.
// An empty column stays nil, so no chunk keeps the scratch alive.
func (t *Trace) closeChunk(buf *Batch) {
	t.chunks = append(t.chunks, chunk{
		si:     append([]int32(nil), buf.SI...),
		meta:   append([]uint8(nil), buf.Meta...),
		ea:     append([]uint64(nil), buf.EA...),
		stride: append([]int64(nil), buf.Stride...),
	})
	t.bytes += frameSize(len(buf.SI), len(buf.EA), len(buf.Stride))
	buf.SI, buf.Meta, buf.EA, buf.Stride = buf.SI[:0], buf.Meta[:0], buf.EA[:0], buf.Stride[:0]
}

// Program returns the traced program.
func (t *Trace) Program() *isa.Program { return t.prog }

// Records returns the number of dynamic instructions recorded.
func (t *Trace) Records() uint64 { return t.n }

// Chunks returns the number of storage chunks.
func (t *Trace) Chunks() int { return len(t.chunks) }

// Bytes returns the approximate encoded size in memory.
func (t *Trace) Bytes() int64 { return t.bytes }

// Reader returns a fresh replay cursor over the trace. Readers are
// independent: many may replay the same trace concurrently.
func (t *Trace) Reader() *Reader { return &Reader{t: t} }

// ReaderAt returns a replay cursor positioned after the first pos records,
// as if Reader() had been followed by Skip(pos) — but without walking the
// skipped prefix. Because every chunk except the last holds exactly
// chunkRecords records, the target chunk is found by division; only the
// consumed prefix of that one chunk is walked to align the ea/stride
// cursors (at most chunkRecords static-table lookups). The skipped count
// starts at zero: ReaderAt positions, it does not fast-forward.
func (t *Trace) ReaderAt(pos uint64) *Reader {
	if pos > t.n {
		pos = t.n
	}
	r := &Reader{t: t, pos: pos}
	r.ci = int(pos / chunkRecords)
	r.ri = int(pos % chunkRecords)
	if r.ci >= len(t.chunks) {
		return r // at end of stream
	}
	c := &t.chunks[r.ci]
	static := t.static
	for i := 0; i < r.ri; i++ {
		s := &static[c.si[i]]
		if s.mem != memNone {
			r.eaI++
			if s.mem == memVector {
				r.strI++
			}
		}
	}
	return r
}

// Cursor is an O(1) resume point for a position a Reader has already
// reached: unlike ReaderAt, which must walk the chunk prefix to realign
// the sparse ea/stride columns, a cursor carries the column offsets
// directly. Capture it with Reader.Cursor at the position of interest and
// reopen any number of independent readers there with ReaderAtCursor.
type Cursor struct {
	pos       uint64
	eaI, strI int
}

// Pos returns the stream position the cursor marks.
func (c Cursor) Pos() uint64 { return c.pos }

// Cursor captures the reader's current position for ReaderAtCursor.
func (r *Reader) Cursor() Cursor { return Cursor{pos: r.pos, eaI: r.eaI, strI: r.strI} }

// ReaderAtCursor opens a new reader at a previously captured cursor in
// O(1). The cursor must have been captured from a reader over the same
// trace.
func (t *Trace) ReaderAtCursor(c Cursor) *Reader {
	r := &Reader{t: t, pos: c.pos, eaI: c.eaI, strI: c.strI}
	r.ci = int(c.pos / chunkRecords)
	r.ri = int(c.pos % chunkRecords)
	if r.ri == 0 {
		// A cursor captured at the end of a full chunk carries that chunk's
		// column ends; the new reader starts the next chunk.
		r.eaI, r.strI = 0, 0
	}
	return r
}

// Reader replays a recorded trace as a Source.
type Reader struct {
	t       *Trace
	ci      int    // chunk index
	ri      int    // record index within chunk
	eaI     int    // cursor into chunk.ea
	strI    int    // cursor into chunk.stride
	pos     uint64 // records consumed (Next, NextBatch, Skip, WarmNext)
	skipped uint64 // records consumed by Skip only
}

// Program returns the traced program.
func (r *Reader) Program() *isa.Program { return r.t.prog }

// Trace returns the recording this reader replays, so a consumer handed a
// Reader can open further cursors over the same trace (see Trace.ReaderAt).
func (r *Reader) Trace() *Trace { return r.t }

// Err always returns nil: only complete, fault-free runs are recorded.
func (r *Reader) Err() error { return nil }

// Pos returns how many records have been consumed so far, whether by Next,
// NextBatch, Skip or WarmNext.
func (r *Reader) Pos() uint64 { return r.pos }

// Skipped returns how many of the consumed records were fast-forwarded by
// Skip or WarmNext rather than reconstructed by Next — the span of the
// trace the consumer never timed (momtrace -stats reports it; it is zero
// for full replays).
func (r *Reader) Skipped() uint64 { return r.skipped }

// Skip advances the cursor past up to n records without reconstructing
// them, returning how many were actually skipped (fewer than n only at end
// of stream). Chunk tails are skipped in O(1); a record inside a partially
// consumed span costs one static-table lookup to keep the ea/stride
// cursors aligned for the next reconstructed record.
func (r *Reader) Skip(n uint64) uint64 {
	var done uint64
	for done < n && r.ci < len(r.t.chunks) {
		c := &r.t.chunks[r.ci]
		remaining := uint64(len(c.si) - r.ri)
		left := n - done
		if remaining <= left {
			done += remaining
			r.ci++
			r.ri, r.eaI, r.strI = 0, 0, 0
			continue
		}
		static := r.t.static
		for i := uint64(0); i < left; i++ {
			s := &static[c.si[r.ri]]
			r.ri++
			if s.mem != memNone {
				r.eaI++
				if s.mem == memVector {
					r.strI++
				}
			}
		}
		done += left
	}
	r.pos += done
	r.skipped += done
	return done
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
// kept for perfbench's drain and memory-touch probes. Like Skip, the
// consumed records count as skipped: they were never reconstructed for
// timing. It returns how many records were consumed (fewer than n only at
// end of stream).
func (r *Reader) WarmNext(n uint64, sink WarmSink) uint64 {
	var done uint64
	static := r.t.static
	for done < n {
		if r.ci >= len(r.t.chunks) {
			break
		}
		c := &r.t.chunks[r.ci]
		if r.ri >= len(c.si) {
			r.ci++
			r.ri, r.eaI, r.strI = 0, 0, 0
			continue
		}
		take := min(n-done, uint64(len(c.si)-r.ri))
		for k := uint64(0); k < take; k++ {
			si := c.si[r.ri]
			s := &static[si]
			switch {
			case s.mem == memScalar:
				sink.WarmScalar(c.ea[r.eaI], int(s.size), s.class == isa.ClassStore)
				r.eaI++
			case s.mem == memVector:
				vl := int(c.meta[r.ri] &^ MetaTaken)
				sink.WarmVector(c.ea[r.eaI], c.stride[r.strI], vl, s.class == isa.ClassMomStore)
				r.eaI++
				r.strI++
			case s.class == isa.ClassBranch:
				sink.WarmBranch(int(si), c.meta[r.ri]&MetaTaken != 0)
			}
			r.ri++
		}
		done += take
	}
	r.pos += done
	r.skipped += done
	return done
}

// Next reconstructs the next dynamic instruction from the trace.
func (r *Reader) Next() (emu.Dyn, bool) {
	for {
		if r.ci >= len(r.t.chunks) {
			return emu.Dyn{}, false
		}
		if r.ri < len(r.t.chunks[r.ci].si) {
			break
		}
		r.ci++
		r.ri, r.eaI, r.strI = 0, 0, 0
	}
	c := &r.t.chunks[r.ci]
	si := c.si[r.ri]
	meta := c.meta[r.ri]
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
		d.Target = int(s.target)
	}
	switch s.mem {
	case memScalar:
		d.EA = c.ea[r.eaI]
		r.eaI++
		d.NElem, d.Size = 1, int(s.size)
	case memVector:
		d.EA = c.ea[r.eaI]
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
// ea/stride columns; a shorter one counts its memory records (one
// static-table lookup each) to keep those cursors aligned for whatever
// reads next.
func (r *Reader) NextBatch(max uint64) Batch {
	for r.ci < len(r.t.chunks) && r.ri == len(r.t.chunks[r.ci].si) {
		r.ci++
		r.ri, r.eaI, r.strI = 0, 0, 0
	}
	if r.ci >= len(r.t.chunks) || max == 0 {
		return Batch{}
	}
	c := &r.t.chunks[r.ci]
	lo, hi := r.ri, len(c.si)
	if uint64(hi-lo) > max {
		hi = lo + int(max)
	}
	eaEnd, strEnd := len(c.ea), len(c.stride)
	if hi < len(c.si) {
		eaEnd, strEnd = r.eaI, r.strI
		static := r.t.static
		for _, si := range c.si[lo:hi] {
			if m := static[si].mem; m != memNone {
				eaEnd++
				if m == memVector {
					strEnd++
				}
			}
		}
	}
	b := Batch{
		SI:     c.si[lo:hi:hi],
		Meta:   c.meta[lo:hi:hi],
		EA:     c.ea[r.eaI:eaEnd:eaEnd],
		Stride: c.stride[r.strI:strEnd:strEnd],
	}
	r.ri, r.eaI, r.strI = hi, eaEnd, strEnd
	r.pos += uint64(hi - lo)
	return b
}
