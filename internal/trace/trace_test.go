package trace

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

const testMaxSteps = 50_000_000

// TestReplayMatchesLive captures every kernel (all ISAs) and checks that the
// replayed Dyn stream is field-for-field identical to a fresh live run.
func TestReplayMatchesLive(t *testing.T) {
	for _, k := range kernels.All(kernels.ScaleTest) {
		for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMMX, isa.ExtMDMX, isa.ExtMOM} {
			k, ext := k, ext
			t.Run(k.Name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				p := k.Build(ext)
				tr, err := Capture(emu.New(p), testMaxSteps, 0)
				if err != nil {
					t.Fatal(err)
				}
				live := NewLive(emu.New(k.Build(ext)))
				r := tr.Reader()
				var n uint64
				for {
					want, okW := live.Next()
					got, okG := r.Next()
					if okW != okG {
						t.Fatalf("record %d: live ok=%v, replay ok=%v", n, okW, okG)
					}
					if !okW {
						break
					}
					if got != want {
						t.Fatalf("record %d: replay %+v != live %+v", n, got, want)
					}
					n++
				}
				if n != tr.Records() {
					t.Fatalf("replayed %d records, trace holds %d", n, tr.Records())
				}
				if tr.Chunks() < 1 {
					t.Fatal("trace has no chunks")
				}
				if tr.Bytes() <= 0 {
					t.Fatal("trace reports no bytes")
				}
			})
		}
	}
}

// TestConcurrentReaders replays one trace from many goroutines at once; the
// race detector guards the sharing contract.
func TestConcurrentReaders(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(emu.New(k.Build(isa.ExtMOM)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan uint64)
	for w := 0; w < 8; w++ {
		go func() {
			r := tr.Reader()
			var n uint64
			for {
				if _, ok := r.Next(); !ok {
					break
				}
				n++
			}
			done <- n
		}()
	}
	for w := 0; w < 8; w++ {
		if n := <-done; n != tr.Records() {
			t.Fatalf("reader saw %d records, want %d", n, tr.Records())
		}
	}
}

// budgetTraces captures idct/Alpha and mpeg2decode/MOM at test scale:
// each spans more than one chunk, and the MOM trace carries strides.
func budgetTraces(t *testing.T) []*Trace {
	t.Helper()
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := Capture(emu.New(k.Build(isa.ExtAlpha)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if alpha.Records() <= chunkRecords+1 {
		t.Fatalf("idct/Alpha has %d records, the test needs more than one chunk", alpha.Records())
	}
	mpeg, _ := batchTestTrace(t)
	return []*Trace{alpha, mpeg}
}

// TestCaptureByteBudget: a capture may take exactly maxBytes bytes, and a
// byte less is ErrTooLarge, not a truncated trace, wherever the budget
// falls in a chunk.
func TestCaptureByteBudget(t *testing.T) {
	for _, tr := range budgetTraces(t) {
		p, b := tr.Program(), tr.Bytes()
		for _, max := range []int64{b, b + 1} {
			got, err := Capture(emu.New(p), testMaxSteps, max)
			if err != nil {
				t.Fatalf("%s: maxBytes %d (the trace's size %d): %v", p.Name, max, b, err)
			}
			if !bytes.Equal(encode(t, got), encode(t, tr)) {
				t.Fatalf("%s: maxBytes %d: the trace differs from an unbounded capture", p.Name, max)
			}
		}
		for _, max := range []int64{b - 1, b / 2, 64, 1} {
			_, err := Capture(emu.New(p), testMaxSteps, max)
			want := fmt.Sprintf("trace: exceeds memory budget: %s needs more than %d bytes", p.Name, max)
			if !errors.Is(err, ErrTooLarge) || err.Error() != want {
				t.Fatalf("%s: maxBytes %d: got %v, want %q", p.Name, max, err, want)
			}
		}
		// A failed capture returns its scratch batch unflushed; the next
		// capture must not inherit those records.
		if got, err := Capture(emu.New(p), testMaxSteps, 0); err != nil || !bytes.Equal(encode(t, got), encode(t, tr)) {
			t.Fatalf("%s: a capture after failed ones differs from an unbounded capture (%v)", p.Name, err)
		}
	}
}

// TestConcurrentCaptures: captures running at once each take their own
// pooled scratch batch, failed ones hand theirs back unflushed, and every
// successful capture still encodes like a serial one.
func TestConcurrentCaptures(t *testing.T) {
	want := budgetTraces(t)
	got := make([]*Trace, 4*len(want))
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := want[i%len(want)].Program()
			if _, err := Capture(emu.New(p), testMaxSteps, 64); !errors.Is(err, ErrTooLarge) {
				t.Errorf("%s: a 64-byte budget gave %v", p.Name, err)
			}
			got[i], errs[i] = Capture(emu.New(p), testMaxSteps, 0)
		}(i)
	}
	wg.Wait()
	for i, tr := range got {
		w := want[i%len(want)]
		if errs[i] != nil || !bytes.Equal(encode(t, tr), encode(t, w)) {
			t.Fatalf("%s: concurrent capture %d differs from a serial one (%v)", w.Program().Name, i, errs[i])
		}
	}
}

// TestCaptureStepBudget: a capture may take exactly maxSteps records, and
// one more is an error, wherever the budget falls in a chunk. When both
// budgets run out, the one exhausted by the earlier record is reported.
func TestCaptureStepBudget(t *testing.T) {
	for _, tr := range budgetTraces(t) {
		p, n := tr.Program(), tr.Records()
		for _, max := range []uint64{n, n + 1} {
			got, err := Capture(emu.New(p), max, 0)
			if err != nil {
				t.Fatalf("%s: maxSteps %d (the trace's length %d): %v", p.Name, max, n, err)
			}
			if !bytes.Equal(encode(t, got), encode(t, tr)) {
				t.Fatalf("%s: maxSteps %d: the trace differs from an unbounded capture", p.Name, max)
			}
		}
		for _, max := range []uint64{n - 1, chunkRecords + 1, chunkRecords, chunkRecords - 1, 10, 0} {
			_, err := Capture(emu.New(p), max, 0)
			want := fmt.Sprintf("trace: %s exceeded %d steps", p.Name, max)
			if err == nil || err.Error() != want {
				t.Fatalf("%s: maxSteps %d: got %v, want %q", p.Name, max, err, want)
			}
		}
		// The last record overruns both budgets: the step check comes first.
		_, err := Capture(emu.New(p), n-1, tr.Bytes()-1)
		if want := fmt.Sprintf("trace: %s exceeded %d steps", p.Name, n-1); err == nil || err.Error() != want {
			t.Fatalf("%s: both budgets one short: got %v, want %q", p.Name, err, want)
		}
		// Half the bytes run out long before the steps.
		_, err = Capture(emu.New(p), n-1, tr.Bytes()/2)
		if !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: half the bytes and one step short: got %v, want ErrTooLarge", p.Name, err)
		}
	}
}

// faultCase is a program that faults after a known number of records, and
// the exact error every entry point must report for it.
type faultCase struct {
	prog   *isa.Program
	before int // records executed before the faulting instruction
	want   string
}

// faultCases covers each way an instruction can fault: an out-of-range
// load after more records than one Live batch holds, a divide by zero, a
// setvli out of range, and an unknown opcode both inside and past the
// opcode table.
func faultCases() []faultCase {
	load := asm.New("load")
	load.MovI(isa.R(1), 1<<40)
	load.Loop(isa.R(2), 100, func() { load.AddI(isa.R(3), isa.R(3), 1) })
	load.Ldq(isa.R(4), isa.R(1), 8)

	div := asm.New("div")
	div.MovI(isa.R(1), 7)
	div.Op(isa.DIVQ, isa.R(2), isa.R(1), isa.Zero)

	vl := asm.New("setvli")
	vl.MovI(isa.R(1), 7)
	vl.SetVLI(isa.MaxVL + 1)

	hole := asm.New("hole")
	hole.MovI(isa.R(1), 7)
	hole.Emit(isa.Inst{Op: isa.VectorDelta - 1})

	past := asm.New("past")
	past.MovI(isa.R(1), 7)
	past.Emit(isa.Inst{Op: 0xffff})

	return []faultCase{
		{load.Build(), 302, "load: pc=5 ldq r4, r1, #8: memory fault: access of 8 bytes at 0x10000000008"},
		{div.Build(), 1, "div: pc=1 divide by zero"},
		{vl.Build(), 1, "setvli: pc=1 setvli 17 out of range"},
		{hole.Build(), 1, "hole: pc=1 unknown opcode 511"},
		{past.Build(), 1, "past: pc=1 unknown opcode 65535"},
	}
}

// TestFaultText: every entry point that executes instructions reports a
// fault with the same text, keeps the records before it, and stops there.
func TestFaultText(t *testing.T) {
	for _, fc := range faultCases() {
		p := fc.prog
		t.Run(p.Name, func(t *testing.T) {
			m := emu.New(p)
			n, err := m.Run(testMaxSteps)
			if err == nil || err.Error() != fc.want || n != uint64(fc.before) {
				t.Fatalf("Run: %d steps, %v; want %d steps, %q", n, err, fc.before, fc.want)
			}

			m = emu.New(p)
			var sis []int32
			for {
				d, ok := m.Step()
				if !ok {
					break
				}
				sis = append(sis, int32(d.SI))
			}
			if m.Err == nil || m.Err.Error() != fc.want || len(sis) != fc.before {
				t.Fatalf("Step: %d records, %v; want %d records, %q", len(sis), m.Err, fc.before, fc.want)
			}

			if _, err := Capture(emu.New(p), testMaxSteps, 0); err == nil || err.Error() != fc.want {
				t.Fatalf("Capture: %v, want %q", err, fc.want)
			}

			l := NewLive(emu.New(p))
			var got []int32
			for {
				b := l.NextBatch(testMaxSteps)
				if len(b.Meta) == 0 {
					break
				}
				if l.Err() != nil && len(got)+len(b.Meta) != fc.before {
					t.Fatalf("Live.NextBatch: fault set after %d records", len(got)+len(b.Meta))
				}
				sis, _ := batchSIs(l.Flow(), b)
				got = append(got, sis...)
			}
			if l.Err() == nil || l.Err().Error() != fc.want {
				t.Fatalf("Live.NextBatch: %v, want %q", l.Err(), fc.want)
			}
			if !slices.Equal(got, sis) {
				t.Fatalf("Live.NextBatch: %d records before the fault, Step %d", len(got), len(sis))
			}
			if b := l.NextBatch(1); len(b.Meta) != 0 {
				t.Fatalf("Live.NextBatch after the fault: %d records", len(b.Meta))
			}
		})
	}
}

// wideAddressProgram runs a MOM load at VL 0 from a base above 2^32 after
// more records than one Live batch holds. The load moves no element, so
// nothing bounds-checks its base, and the program completes.
func wideAddressProgram() *isa.Program {
	b := asm.New("wide")
	b.Loop(isa.R(2), 100, func() { b.AddI(isa.R(3), isa.R(3), 1) })
	b.MovI(isa.R(1), 1<<33)
	b.MovI(isa.R(4), 8)
	b.SetVLI(0)
	b.MomLd(isa.V(0), isa.R(1), isa.R(4), 0)
	return b.Build()
}

// TestWideAddressStopsRecording: a recording stops at an effective address
// that does not fit in 32 bits, with the same text from Capture and
// Live.NextBatch and the records before it kept, while Run, which records
// nothing, completes the program.
func TestWideAddressStopsRecording(t *testing.T) {
	p := wideAddressProgram()
	n, err := emu.New(p).Run(testMaxSteps)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	const want = "wide: pc=7 momldq v0, r1, r4: effective address does not fit in 32 bits: 0x200000000"
	if _, err := Capture(emu.New(p), testMaxSteps, 0); !errors.Is(err, emu.ErrWideAddress) || err.Error() != want {
		t.Fatalf("Capture: %v, want %q", err, want)
	}
	l := NewLive(emu.New(p))
	got := uint64(0)
	for b := l.NextBatch(testMaxSteps); len(b.Meta) > 0; b = l.NextBatch(testMaxSteps) {
		got += uint64(len(b.Meta))
	}
	if l.Err() == nil || l.Err().Error() != want || got != n-1 {
		t.Fatalf("Live.NextBatch: %d records, %v; want %d records, %q", got, l.Err(), n-1, want)
	}
}

// TestSkipMatchesNext: Skip(n) must land the cursor exactly where n Next
// calls would — including the ea/stride columns — for every offset class
// (mid-chunk, chunk boundary, past the end), and the Pos/Skipped counters
// must account for every record.
func TestSkipMatchesNext(t *testing.T) {
	k, err := kernels.ByName("idct", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p := k.Build(isa.ExtMOM)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Records()
	for _, skip := range []uint64{0, 1, 7, n / 3, n - 1, n, n + 100} {
		skip := skip
		ref := tr.Reader()
		for i := uint64(0); i < skip; i++ {
			ref.Next()
		}
		r := tr.Reader()
		want := skip
		if want > n {
			want = n
		}
		if got := r.Skip(skip); got != want {
			t.Fatalf("Skip(%d) skipped %d records, want %d", skip, got, want)
		}
		if r.Pos() != want || r.Skipped() != want {
			t.Fatalf("Skip(%d): pos %d skipped %d, want both %d", skip, r.Pos(), r.Skipped(), want)
		}
		for {
			want, okW := ref.Next()
			got, okG := r.Next()
			if okW != okG {
				t.Fatalf("after Skip(%d): ref ok=%v, skip-reader ok=%v", skip, okW, okG)
			}
			if !okW {
				break
			}
			if got != want {
				t.Fatalf("after Skip(%d): %+v != %+v", skip, got, want)
			}
		}
		if r.Pos() != n {
			t.Fatalf("after draining: pos %d, want %d", r.Pos(), n)
		}
		if r.Skipped() != want {
			t.Fatalf("after draining: skipped %d, want %d", r.Skipped(), want)
		}
	}
}

// warmRec is one record delivered to a recording WarmSink.
type warmRec struct {
	kind   string
	si     int
	taken  bool
	ea     uint64
	size   int
	stride int64
	nelem  int
	store  bool
}

type recordingSink struct{ recs []warmRec }

func (s *recordingSink) WarmBranch(si int, taken bool) {
	s.recs = append(s.recs, warmRec{kind: "branch", si: si, taken: taken})
}
func (s *recordingSink) WarmScalar(ea uint64, size int, store bool) {
	s.recs = append(s.recs, warmRec{kind: "scalar", ea: ea, size: size, store: store})
}
func (s *recordingSink) WarmVector(ea uint64, stride int64, nelem int, store bool) {
	s.recs = append(s.recs, warmRec{kind: "vector", ea: ea, stride: stride, nelem: nelem, store: store})
}

// TestWarmNextMatchesNext: the bulk fast-forward must deliver exactly the
// branch and memory records Next would reconstruct, in order, with the
// same payloads, and leave the cursor where Next would.
func TestWarmNextMatchesNext(t *testing.T) {
	k, err := kernels.ByName("motion1", kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(emu.New(k.Build(isa.ExtMOM)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := tr.Records()
	span := n / 2

	// Reference: reconstruct the first span records through Next.
	var want []warmRec
	ref := tr.Reader()
	for i := uint64(0); i < span; i++ {
		d, ok := ref.Next()
		if !ok {
			t.Fatal("short stream")
		}
		switch d.Class {
		case isa.ClassBranch:
			want = append(want, warmRec{kind: "branch", si: d.SI, taken: d.Taken})
		case isa.ClassLoad, isa.ClassStore:
			want = append(want, warmRec{kind: "scalar", ea: d.EA, size: d.Size, store: d.Class == isa.ClassStore})
		case isa.ClassMomLoad, isa.ClassMomStore:
			want = append(want, warmRec{kind: "vector", ea: d.EA, stride: d.Stride, nelem: d.VL, store: d.Class == isa.ClassMomStore})
		}
	}

	sink := &recordingSink{}
	r := tr.Reader()
	if got := r.WarmNext(span, sink); got != span {
		t.Fatalf("WarmNext(%d) consumed %d", span, got)
	}
	if r.Pos() != span || r.Skipped() != span {
		t.Fatalf("pos %d skipped %d, want both %d", r.Pos(), r.Skipped(), span)
	}
	if len(sink.recs) != len(want) {
		t.Fatalf("sink saw %d warm records, want %d", len(sink.recs), len(want))
	}
	for i := range want {
		if sink.recs[i] != want[i] {
			t.Fatalf("warm record %d: %+v != %+v", i, sink.recs[i], want[i])
		}
	}

	// The reader must resume exactly where Next left the reference cursor.
	for {
		want, okW := ref.Next()
		got, okG := r.Next()
		if okW != okG {
			t.Fatalf("resume: ref ok=%v, warm-reader ok=%v", okW, okG)
		}
		if !okW {
			break
		}
		if got != want {
			t.Fatalf("resume: %+v != %+v", got, want)
		}
	}
}
