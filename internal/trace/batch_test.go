package trace

// NextBatch tests: concatenated batches must reproduce Next's stream at
// every batch size and starting position, leave the reader's cursors
// aligned for whatever reads next, and allocate nothing.

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/isa"
)

// batchTestTrace captures mpeg2decode on MOM at test scale: two full
// chunks and a partial third, with branch, scalar and vector memory
// records.
func batchTestTrace(t testing.TB) (*Trace, *isa.Program) {
	t.Helper()
	a, err := apps.ByName("mpeg2decode", apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Build(isa.ExtMOM)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Chunks() < 3 {
		t.Fatalf("mpeg2decode/MOM has %d chunks, the tests need 3 or more", tr.Chunks())
	}
	return tr, p
}

// rec is what a batch carries about one record.
type rec struct {
	si     int
	vl     int
	taken  bool
	ea     uint64
	stride int64
}

func recOf(d emu.Dyn) rec {
	return rec{si: d.SI, vl: d.VL, taken: d.Taken, ea: d.EA, stride: d.Stride}
}

// nextRecs drains a reader through Next.
func nextRecs(src Source) []rec {
	var out []rec
	for {
		d, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, recOf(d))
	}
}

// batchSIs expands a batch's static indices by flow: one per record, and
// next, the index flow derives from the last record (the batch's first
// index when it is empty).
func batchSIs(flow Flow, b Batch) (sis []int32, next int32) {
	next = b.First
	for _, meta := range b.Meta {
		sis = append(sis, next)
		next = flow.Next(next, meta)
	}
	return sis, next
}

// batchRecs expands a batch of tr's program into records, deriving their
// static indices by its flow and walking its sparse columns with its
// static table, and checks that the records use every column entry.
func batchRecs(t *testing.T, tr *Trace, b Batch) []rec {
	t.Helper()
	out := make([]rec, len(b.Meta))
	var ea, str int
	sis, _ := batchSIs(tr.flow, b)
	for i, si := range sis {
		r := rec{si: int(si), vl: int(b.Meta[i] &^ MetaTaken), taken: b.Meta[i]&MetaTaken != 0}
		if m := tr.static[si].mem; m != memNone {
			if ea == len(b.EA) || (m == memVector && str == len(b.Stride)) {
				t.Fatalf("record %d of a %d-record batch runs past its ea/stride columns", i, len(b.Meta))
			}
			r.ea = uint64(b.EA[ea])
			ea++
			if m == memVector {
				r.stride = b.Stride[str]
				str++
			}
		}
		out[i] = r
	}
	if ea != len(b.EA) || str != len(b.Stride) {
		t.Fatalf("batch carries %d/%d ea/stride entries, its records use %d/%d", len(b.EA), len(b.Stride), ea, str)
	}
	return out
}

// readTo opens a reader over tr and moves it past the first pos records
// (or to the end of the trace) with Next.
func readTo(tr *Trace, pos uint64) *Reader {
	r := tr.Reader()
	for r.Pos() < pos {
		if _, ok := r.Next(); !ok {
			break
		}
	}
	return r
}

func sameRecs(t *testing.T, what string, got, want []rec) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
}

// TestNextBatchMatchesNext: for every batch size — single records, the
// sampled windows' 100 and 150, sizes around a chunk, the whole trace —
// and from the start, after Next and from ReaderAtCursor at mid-chunk
// positions, the batches concatenate to Next's stream, stay within max
// and within one chunk, and advance Pos by their length.
func TestNextBatchMatchesNext(t *testing.T) {
	tr, _ := batchTestTrace(t)
	want := nextRecs(tr.Reader())
	n := tr.Records()
	if uint64(len(want)) != n {
		t.Fatalf("Next produced %d records, trace holds %d", len(want), n)
	}
	nextPos := uint64(chunkRecords + 12345)
	curPos := uint64(2*chunkRecords + 777)
	starts := []struct {
		name string
		pos  uint64
		open func() *Reader
	}{
		{"Reader", 0, tr.Reader},
		{"Next", nextPos, func() *Reader { return readTo(tr, nextPos) }},
		{"ReaderAtCursor", curPos, func() *Reader { return tr.ReaderAtCursor(readTo(tr, curPos).Cursor()) }},
	}
	for _, st := range starts {
		for _, max := range []uint64{1, 7, 100, 150, chunkRecords - 1, chunkRecords, chunkRecords + 1, n} {
			r := st.open()
			pos := st.pos
			var got []rec
			for {
				b := r.NextBatch(max)
				if len(b.Meta) == 0 {
					break
				}
				if uint64(len(b.Meta)) > max {
					t.Fatalf("%s max %d: batch of %d records", st.name, max, len(b.Meta))
				}
				end := pos + uint64(len(b.Meta))
				if pos/chunkRecords != (end-1)/chunkRecords {
					t.Fatalf("%s max %d: batch [%d,%d) crosses a chunk boundary", st.name, max, pos, end)
				}
				got = append(got, batchRecs(t, tr, b)...)
				pos = end
				if r.Pos() != pos {
					t.Fatalf("%s max %d: Pos %d after batches up to %d", st.name, max, r.Pos(), pos)
				}
			}
			sameRecs(t, st.name, got, want[st.pos:])
		}
	}
}

// TestNextBatchKeepsCursorsAligned: after one batch — partial or running
// to its chunk's end — Next, WarmNext and a reader reopened at the batch's
// Cursor all continue exactly where a reader opened at the batch's end
// does.
func TestNextBatchKeepsCursorsAligned(t *testing.T) {
	tr, _ := batchTestTrace(t)
	for _, max := range []uint64{100, 150, chunkRecords - 1, chunkRecords} {
		for _, start := range []uint64{0, 5, chunkRecords - 100, chunkRecords + 3} {
			batch := func() (*Reader, uint64) {
				r := readTo(tr, start)
				end := start + uint64(len(r.NextBatch(max).Meta))
				if r.Pos() != end {
					t.Fatalf("start %d max %d: Pos %d after a batch ending at %d", start, max, r.Pos(), end)
				}
				return r, end
			}

			r, end := batch()
			sameRecs(t, "Next after NextBatch", nextRecs(r), nextRecs(readTo(tr, end)))

			r, end = batch()
			sameRecs(t, "ReaderAtCursor after NextBatch", nextRecs(tr.ReaderAtCursor(r.Cursor())), nextRecs(readTo(tr, end)))

			r, end = batch()
			got, ref := &recordingSink{}, &recordingSink{}
			r.WarmNext(3000, got)
			readTo(tr, end).WarmNext(3000, ref)
			if len(got.recs) != len(ref.recs) {
				t.Fatalf("start %d max %d: WarmNext after NextBatch delivered %d records, want %d", start, max, len(got.recs), len(ref.recs))
			}
			for i := range ref.recs {
				if got.recs[i] != ref.recs[i] {
					t.Fatalf("start %d max %d: warm record %d is %+v, want %+v", start, max, i, got.recs[i], ref.recs[i])
				}
			}
		}
	}
}

// TestCursorAtChunkEnd: a cursor taken where a read stopped exactly at the
// end of a full chunk reopens at the next chunk's first record.
func TestCursorAtChunkEnd(t *testing.T) {
	tr, _ := batchTestTrace(t)
	want := nextRecs(readTo(tr, chunkRecords))
	r := tr.Reader()
	r.WarmNext(chunkRecords, &recordingSink{})
	sameRecs(t, "after WarmNext", nextRecs(tr.ReaderAtCursor(r.Cursor())), want)
	r = tr.Reader()
	r.NextBatch(chunkRecords)
	sameRecs(t, "after NextBatch", nextRecs(tr.ReaderAtCursor(r.Cursor())), want)
}

// TestCursorAtSeek: a cursor marked inside the last batch — partial or
// running to its chunk's end, at its first record, inside it and past its
// last — reopens exactly there, through ReaderAtCursor and through Seek on
// a reader that has already read further.
func TestCursorAtSeek(t *testing.T) {
	tr, _ := batchTestTrace(t)
	want := nextRecs(tr.Reader())
	for _, c := range []struct{ start, max uint64 }{{5, 1000}, {chunkRecords, chunkRecords}} {
		r := readTo(tr, c.start)
		b := r.NextBatch(c.max)
		sis, next := batchSIs(tr.flow, b)
		sis = append(sis, next)
		for _, k := range []int{0, 1, 777, len(b.Meta) - 1, len(b.Meta)} {
			ea, strides := 0, 0
			for _, si := range sis[:k] {
				if m := tr.static[si].mem; m != memNone {
					ea++
					if m == memVector {
						strides++
					}
				}
			}
			cur := r.CursorAt(b, k, ea, strides, sis[k])
			pos := c.start + uint64(k)
			if cur.Pos() != pos {
				t.Fatalf("start %d max %d k %d: cursor at %d, want %d", c.start, c.max, k, cur.Pos(), pos)
			}
			sameRecs(t, "ReaderAtCursor at CursorAt", nextRecs(tr.ReaderAtCursor(cur)), want[pos:])
			back := readTo(tr, tr.Records())
			back.Seek(cur)
			if back.Pos() != pos {
				t.Fatalf("start %d max %d k %d: Pos %d after Seek, want %d", c.start, c.max, k, back.Pos(), pos)
			}
			sameRecs(t, "Seek back to CursorAt", nextRecs(back), want[pos:])
		}
	}
}

// TestLiveNextBatchMatchesNext: the live emulator's batches, at most 256
// records each, concatenate to its Next stream.
func TestLiveNextBatchMatchesNext(t *testing.T) {
	tr, p := batchTestTrace(t)
	want := nextRecs(NewLive(emu.New(p)))
	for _, max := range []uint64{7, 1000} {
		live := NewLive(emu.New(p))
		var got []rec
		for {
			b := live.NextBatch(max)
			if len(b.Meta) == 0 {
				break
			}
			if limit := min(max, liveBatchRecords); uint64(len(b.Meta)) > limit {
				t.Fatalf("max %d: live batch of %d records, want at most %d", max, len(b.Meta), limit)
			}
			got = append(got, batchRecs(t, tr, b)...)
		}
		if err := live.Err(); err != nil {
			t.Fatal(err)
		}
		sameRecs(t, "live", got, want)
	}
}

// TestNextBatchAllocatesNothing: a batch is a view of the chunk.
func TestNextBatchAllocatesNothing(t *testing.T) {
	tr, _ := batchTestTrace(t)
	r := tr.Reader()
	if allocs := testing.AllocsPerRun(100, func() { r.NextBatch(150) }); allocs != 0 {
		t.Errorf("Reader.NextBatch allocates %.1f times per call", allocs)
	}
}

// TestConcurrentBatchReaders: batches are views of the shared chunks, so
// readers batching over one trace from many goroutines at once must each
// see the whole stream; the race detector guards the sharing contract.
func TestConcurrentBatchReaders(t *testing.T) {
	tr, _ := batchTestTrace(t)
	want := nextRecs(tr.Reader())
	done := make(chan []rec)
	for w := 0; w < 4; w++ {
		go func(max uint64) {
			var got []rec
			r := tr.Reader()
			for b := r.NextBatch(max); len(b.Meta) > 0; b = r.NextBatch(max) {
				sis, _ := batchSIs(r.Flow(), b)
				for i, si := range sis {
					got = append(got, rec{si: int(si), vl: int(b.Meta[i] &^ MetaTaken), taken: b.Meta[i]&MetaTaken != 0})
				}
			}
			done <- got
		}(uint64(100 + 50*w))
	}
	for w := 0; w < 4; w++ {
		got := <-done
		if len(got) != len(want) {
			t.Fatalf("batch reader saw %d records, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i].si != want[i].si || got[i].vl != want[i].vl || got[i].taken != want[i].taken {
				t.Fatalf("batch reader record %d is %+v, want %+v", i, got[i], want[i])
			}
		}
	}
}
