package cpu

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/trace"
)

// traceChunk is a recorded trace's chunk size (trace.chunkRecords): the
// batch a span asks a recorded trace for runs to the end of its chunk.
const traceChunk = 1 << 15

// spanStep is one span of a seeded sequence: n records simulated in detail
// (runSpan) or fast-forwarded through functional warming (warmSpan).
type spanStep struct {
	detailed bool
	n        uint64
}

// seededSpans draws spans until they cover total records. Most are a few
// hundred or thousand records long, as windows and skip spans are; the rest
// run to the next chunk boundary, over whole chunks or over up to three
// chunks, so spans start and end both on and off chunk boundaries.
func seededSpans(seed int64, total uint64) []spanStep {
	rng := rand.New(rand.NewSource(seed))
	var steps []spanStep
	for pos := uint64(0); pos < total; {
		var n uint64
		switch r := rng.Intn(32); {
		case r < 16:
			n = 1 + uint64(rng.Intn(300))
		case r < 28:
			n = 1 + uint64(rng.Intn(3000))
		case r < 30:
			n = traceChunk - pos%traceChunk
		case r < 31:
			n = uint64(1+rng.Intn(2)) * traceChunk
		default:
			n = 1 + uint64(rng.Intn(3*traceChunk))
		}
		steps = append(steps, spanStep{detailed: rng.Intn(2) == 0, n: n})
		pos += n
	}
	return steps
}

// spanMachine is the machine every span test runs on.
func spanMachine() *Sim {
	return New(NewConfig(4, isa.ExtMOM), mem.NewHierarchy(mem.HierConfig{Width: 4, Mode: mem.ModeMultiAddress}))
}

// runSteps runs steps over src from its start, after each span checking
// the span's more result and calling check with the position the span must
// have left src at. It returns the detailed spans' counters, the run state
// and the machine.
func runSteps(t *testing.T, src trace.Source, records uint64, steps []spanStep, check func(i int, pos uint64)) (Result, *runState, *Sim) {
	t.Helper()
	s := spanMachine()
	statics := staticsFor(src)
	warm := warmTableFor(src, statics)
	rs := &runState{} // not pooled: its rings compare field for field below
	rs.ensure(&s.Cfg)
	var res Result
	for i, st := range steps {
		start := rs.idx
		pos := min(start+st.n, records)
		var more bool
		if st.detailed {
			var err error
			if more, err = s.runSpan(rs, src, statics, &res, start+st.n, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			var skipped uint64
			skipped, more = warmSpan(src, warm, rs, s.Mem.(*mem.Hierarchy), st.n)
			rs.idx += skipped
		}
		if rs.idx != pos || more != (pos == start+st.n) {
			t.Fatalf("span %d (%+v) from record %d: ended at %d (more %v), want %d (more %v)",
				i, st, start, rs.idx, more, pos, pos == start+st.n)
		}
		check(i, pos)
	}
	return res, rs, s
}

// nextDyns reads up to n records through Next.
func nextDyns(src trace.Source, n int) []emu.Dyn {
	var out []emu.Dyn
	for len(out) < n {
		d, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	return out
}

// spanTestTrace captures bench-scale mpeg2decode on MOM, a trace of many
// chunks with branch, scalar and vector memory records.
func spanTestTrace(t *testing.T) (*trace.Trace, *isa.Program) {
	t.Helper()
	a, err := apps.ByName("mpeg2decode", apps.ScaleBench)
	if err != nil {
		t.Fatal(err)
	}
	p := a.Build(isa.ExtMOM)
	tr, err := trace.Capture(emu.New(p), 50_000_000, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// TestSpansSeekBack: a span over a recorded trace takes whole chunk tails
// and, where it stops inside one, seeks the reader back. Detailed and skip
// spans of seeded lengths, run to past the end of the trace, must each
// leave the reader where Next puts a reference reader: the same cursor
// (inside a chunk, where both hold the same column offsets) and the same
// next 2,000 records, read from the reader itself and from a reader
// reopened at its cursor. The same spans over the live emulator, which is
// asked for exactly what each span needs, must leave it at the same
// positions and end in the same timing, predictor and tag state.
func TestSpansSeekBack(t *testing.T) {
	tr, p := spanTestTrace(t)
	n := tr.Records()
	if tr.Chunks() < 8 {
		t.Fatalf("trace has %d chunks, want 8 or more", tr.Chunks())
	}
	for seed := int64(1); seed <= 8; seed++ {
		steps := seededSpans(seed, n+5000)
		rd, ref := tr.Reader(), tr.Reader()
		resR, rsR, simR := runSteps(t, rd, n, steps, func(i int, pos uint64) {
			for ref.Pos() < pos {
				ref.Next()
			}
			if got := rd.Cursor(); got.Pos() != pos || (pos%traceChunk != 0 && pos < n && got != ref.Cursor()) {
				t.Fatalf("seed %d span %d: reader cursor %+v, Next's %+v", seed, i, got, ref.Cursor())
			}
			own, at := *rd, *ref // both readers' state, read without moving them
			want := nextDyns(&at, 2000)
			if got := nextDyns(&own, 2000); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d span %d: the reader's next records differ from Next's at record %d", seed, i, pos)
			}
			if got := nextDyns(tr.ReaderAtCursor(rd.Cursor()), 2000); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d span %d: records at the reader's cursor differ from Next's at record %d", seed, i, pos)
			}
		})

		m := emu.New(p)
		resL, rsL, simL := runSteps(t, trace.NewLive(m), n, steps, func(i int, pos uint64) {
			if m.Steps != pos {
				t.Fatalf("seed %d span %d: the emulator stepped to record %d, the span ends at %d", seed, i, m.Steps, pos)
			}
		})
		if !reflect.DeepEqual(resR, resL) {
			t.Errorf("seed %d: detailed spans over the trace and the emulator differ:\n%+v\nvs\n%+v", seed, resR, resL)
		}
		if !reflect.DeepEqual(*rsR, *rsL) {
			t.Errorf("seed %d: run state after the spans over the trace and the emulator differs", seed)
		}
		hR, hL := simR.Mem.(*mem.Hierarchy), simL.Mem.(*mem.Hierarchy)
		if !reflect.DeepEqual(hR.SnapshotTags(), hL.SnapshotTags()) || hR.Stats() != hL.Stats() {
			t.Errorf("seed %d: memory state after the spans over the trace and the emulator differs", seed)
		}
	}
}

// spanLimits passes a source through to the window loop and fails the test
// when the loop asks it for a record past the end of the span it is in:
// the warmup, the measured interval or the skip span of spec, each cut at
// maxInsts.
type spanLimits struct {
	trace.Source
	t        *testing.T
	spec     SampleSpec
	maxInsts uint64
	pos      uint64
}

func (l *spanLimits) NextBatch(max uint64) trace.Batch {
	sp := l.spec
	start := l.pos - l.pos%sp.Period
	end := start + sp.Period
	switch off := l.pos - start; {
	case off < sp.Warmup:
		end = start + sp.Warmup
	case off < sp.Warmup+sp.Interval:
		end = start + sp.Warmup + sp.Interval
	}
	if end = min(end, l.maxInsts); max > end-l.pos {
		l.t.Errorf("asked for %d records at record %d, the span ends at %d", max, l.pos, end)
	}
	b := l.Source.NextBatch(max)
	l.pos += uint64(len(b.Meta))
	return b
}

// TestLiveWindowsStopAtLimit: the window loop over the live emulator asks
// for no record past a span's limit, so the emulator never steps past
// one, and it simulates what the loop over the recorded trace does.
func TestLiveWindowsStopAtLimit(t *testing.T) {
	tr, p := spanTestTrace(t)
	spec := SampleSpec{Period: 1501, Warmup: 100, Interval: 150}
	for _, maxInsts := range []uint64{3*traceChunk + 777, 1 << 40} {
		run := func(src trace.Source) windows {
			s := spanMachine()
			rs := acquireState(&s.Cfg)
			defer releaseState(rs)
			var w windows
			if err := s.runWindows(rs, src, staticsFor(src), maxInsts, spec, 0, nil, nil, &w); err != nil {
				t.Fatal(err)
			}
			if want := min(maxInsts, tr.Records()); rs.idx != want {
				t.Fatalf("max %d: the window loop ended at record %d, want %d", maxInsts, rs.idx, want)
			}
			return w
		}
		m := emu.New(p)
		live := run(&spanLimits{Source: trace.NewLive(m), t: t, spec: spec, maxInsts: maxInsts})
		if want := min(maxInsts, tr.Records()); m.Steps != want {
			t.Errorf("max %d: the emulator stepped to record %d, want %d", maxInsts, m.Steps, want)
		}
		if replay := run(tr.Reader()); !reflect.DeepEqual(live, replay) {
			t.Errorf("max %d: windows over the emulator and the trace differ:\n%+v\nvs\n%+v", maxInsts, live, replay)
		}
	}
}
