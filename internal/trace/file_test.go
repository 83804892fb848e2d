package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/asm"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/kernels"
)

// captureKernel records one kernel for artifact tests.
func captureKernel(t *testing.T, name string, ext isa.Ext) (*Trace, *isa.Program) {
	t.Helper()
	k, err := kernels.ByName(name, kernels.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	p := k.Build(ext)
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	return tr, p
}

// encode renders a trace's artifact bytes.
func encode(t *testing.T, tr *Trace) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	if n != tr.EncodedSize() {
		t.Fatalf("EncodedSize says %d, WriteTo wrote %d", tr.EncodedSize(), n)
	}
	return buf.Bytes()
}

// drain replays a source to completion.
func drain(t *testing.T, src Source) []emu.Dyn {
	t.Helper()
	var out []emu.Dyn
	for {
		d, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, d)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("source fault: %v", err)
	}
	return out
}

// TestArtifactRoundTrip checks encode → decode → re-encode byte identity and
// record-for-record replay equality across kernels and ISAs.
func TestArtifactRoundTrip(t *testing.T) {
	for _, name := range []string{"idct", "motion1"} {
		for _, ext := range []isa.Ext{isa.ExtAlpha, isa.ExtMOM} {
			name, ext := name, ext
			t.Run(name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				tr, p := captureKernel(t, name, ext)
				blob := encode(t, tr)

				dec, err := Decode(bytes.NewReader(blob), p)
				if err != nil {
					t.Fatal(err)
				}
				if dec.Records() != tr.Records() || dec.Chunks() != tr.Chunks() || dec.Bytes() != tr.Bytes() {
					t.Fatalf("decoded shape %d/%d/%d, captured %d/%d/%d",
						dec.Records(), dec.Chunks(), dec.Bytes(), tr.Records(), tr.Chunks(), tr.Bytes())
				}
				if again := encode(t, dec); !bytes.Equal(again, blob) {
					t.Fatal("re-encoded artifact differs from the original bytes")
				}

				want := drain(t, tr.Reader())
				got := drain(t, dec.Reader())
				if len(got) != len(want) {
					t.Fatalf("replay lengths: capture %d, decode %d", len(want), len(got))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("record %d: decoded %+v != captured %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestArtifactCorruption flips, truncates and mislabels artifact bytes and
// requires every damaged form to fail with ErrFormat — never decode wrong.
func TestArtifactCorruption(t *testing.T) {
	tr, p := captureKernel(t, "idct", isa.ExtMOM)
	blob := encode(t, tr)
	headerLen := bytes.IndexByte(blob, '\n') + 1

	check := func(t *testing.T, data []byte) {
		t.Helper()
		if _, err := Decode(bytes.NewReader(data), p); !errors.Is(err, ErrFormat) {
			t.Fatalf("Decode accepted damaged artifact (err=%v)", err)
		}
	}

	t.Run("bad magic", func(t *testing.T) {
		data := append([]byte(nil), blob...)
		copy(data, "momtrace 9")
		check(t, data)
	})
	t.Run("fingerprint mismatch", func(t *testing.T) {
		// A different program's artifact must not decode for p.
		other, _ := captureKernel(t, "idct", isa.ExtAlpha)
		check(t, encode(t, other))
	})
	t.Run("truncated header", func(t *testing.T) {
		check(t, blob[:headerLen/2])
	})
	t.Run("truncated payload", func(t *testing.T) {
		check(t, blob[:headerLen+(len(blob)-headerLen)/2])
	})
	t.Run("flipped payload byte", func(t *testing.T) {
		data := append([]byte(nil), blob...)
		data[len(data)-9] ^= 0x40
		check(t, data)
	})
	t.Run("trailing bytes", func(t *testing.T) {
		check(t, append(append([]byte(nil), blob...), 0))
	})
	t.Run("flipped first static index", func(t *testing.T) {
		// The checksum covers the prelude as well as the payload, so damage
		// to a frame's first index reads as damage, whatever index results.
		data := append([]byte(nil), blob...)
		data[headerLen+12] ^= 1
		if _, err := Decode(bytes.NewReader(data), p); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("Decode gave %v, want a checksum mismatch", err)
		}
	})
	t.Run("record count lie", func(t *testing.T) {
		// Rewrite the header to claim one record fewer; framing no longer
		// adds up and the decoder must notice.
		var fp string
		var records uint64
		var chunks int
		if _, err := fmt.Sscanf(string(blob[:headerLen]), fileMagic+" %16s %d %d\n", &fp, &records, &chunks); err != nil {
			t.Fatal(err)
		}
		hdr := []byte(headerLine(fp, records-1, chunks))
		check(t, append(hdr, blob[headerLen:]...))
	})
	t.Run("chunk count bomb", func(t *testing.T) {
		// A one-line artifact claiming 2^45 records (2^30 chunks) must fail
		// on its first missing frame, not allocate what the header claims.
		check(t, bombHeader(p))
	})
}

// headerVariant is an artifact whose header line WriteTo would render
// differently: the same fields, spaced or written otherwise.
type headerVariant struct {
	name string
	data []byte
}

// headerVariants rewrites blob's header in each form fmt.Sscanf would
// parse as the canonical one.
func headerVariants(t testing.TB, blob []byte) []headerVariant {
	t.Helper()
	end := bytes.IndexByte(blob, '\n') + 1
	f := strings.Fields(string(blob[:end]))
	if len(f) != 5 || f[0]+" "+f[1] != fileMagic {
		t.Fatalf("unexpected header %q", blob[:end])
	}
	fp, records, chunks := f[2], f[3], f[4]
	with := func(name, header string) headerVariant {
		return headerVariant{name, append([]byte(header), blob[end:]...)}
	}
	return []headerVariant{
		with("tab after momtrace", strings.Replace(fileMagic, " ", "\t", 1)+" "+fp+" "+records+" "+chunks+"\n"),
		with("doubled space", fileMagic+"  "+fp+" "+records+" "+chunks+"\n"),
		with("space before newline", fileMagic+" "+fp+" "+records+" "+chunks+" \n"),
		with("carriage return between fields", fileMagic+" "+fp+"\r"+records+" "+chunks+"\n"),
		with("leading zero", fileMagic+" "+fp+" 0"+records+" "+chunks+"\n"),
	}
}

// TestDecodeRejectsNonCanonicalHeader: Decode accepts a header only in the
// form WriteTo writes, so an accepted artifact re-encodes to its own
// bytes.
func TestDecodeRejectsNonCanonicalHeader(t *testing.T) {
	p := fuzzSeedProgram("seed")
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	blob := encode(t, tr)
	if _, err := Decode(bytes.NewReader(blob), p); err != nil {
		t.Fatalf("canonical artifact: %v", err)
	}
	for _, v := range headerVariants(t, blob) {
		if _, err := Decode(bytes.NewReader(v.data), p); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: Decode gave %v, want ErrFormat", v.name, err)
		}
	}
}

// TestDecodeBoundsHeader: Decode looks for the header line in its first
// maxHeaderLen bytes, which hold any canonical header, so a megabyte of
// garbage where the header belongs is refused with a short error that
// quotes only a prefix of it.
func TestDecodeBoundsHeader(t *testing.T) {
	if n := len(headerLine(strings.Repeat("f", 16), math.MaxUint64, math.MaxInt64)); n > maxHeaderLen {
		t.Fatalf("the longest canonical header is %d bytes, over maxHeaderLen %d", n, maxHeaderLen)
	}
	garbage := append(bytes.Repeat([]byte{0xff}, 1<<20), '\n')
	_, err := Decode(bytes.NewReader(garbage), fuzzSeedProgram("seed"))
	if !errors.Is(err, ErrFormat) {
		t.Fatalf("Decode gave %v, want ErrFormat", err)
	}
	if n := len(err.Error()); n >= 256 {
		t.Fatalf("the error is %d bytes, want under 256: %.100s...", n, err)
	}
}

// TestEncodedSizeMultiChunk: an artifact is its header, a 20-byte prelude
// per chunk and the columns the trace holds in memory, so WriteTo writes
// and EncodedSize counts len(header) + 20·Chunks + Bytes bytes for a trace
// of several frames with scalar and vector memory records (mpeg2decode on
// MOM at test scale).
func TestEncodedSizeMultiChunk(t *testing.T) {
	a, err := apps.ByName("mpeg2decode", apps.ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Capture(emu.New(a.Build(isa.ExtMOM)), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	vector := 0
	for r := tr.Reader(); ; {
		d, ok := r.Next()
		if !ok {
			break
		}
		if d.Class == isa.ClassMomLoad || d.Class == isa.ClassMomStore {
			vector++
		}
	}
	if tr.Chunks() < 2 || vector == 0 {
		t.Fatalf("the trace has %d chunks and %d vector memory records, want several and some", tr.Chunks(), vector)
	}
	want := int64(len(tr.header())) + 20*int64(tr.Chunks()) + tr.Bytes()
	if n := int64(len(encode(t, tr))); n != want {
		t.Fatalf("the artifact is %d bytes, want %d: a %d-byte header, %d chunks and %d bytes in memory",
			n, want, len(tr.header()), tr.Chunks(), tr.Bytes())
	}
}

// bombHeader is a valid header for p claiming 2^45 records, with no frames.
func bombHeader(p *isa.Program) []byte {
	const records = 1 << 45
	return []byte(headerLine(Fingerprint(p), records, records/chunkRecords))
}

// fuzzSeedProgram is a program small enough for a seed artifact of under
// 200 bytes whose trace still holds every record kind: ALU ops, a MOM
// strided load and store, scalar loads and stores, and one taken and one
// not-taken branch.
func fuzzSeedProgram(name string) *isa.Program {
	b := asm.New(name)
	buf := b.Alloc("buf", 256, 8)
	base, stride, ctr, tmp := isa.R(1), isa.R(2), isa.R(3), isa.R(4)
	b.MovI(base, int64(buf))
	b.MovI(stride, 16)
	b.SetVLI(4)
	b.MomLd(isa.V(0), base, stride, 0)
	b.MomSt(isa.V(0), base, stride, 64)
	b.Loop(ctr, 2, func() {
		b.Ldq(tmp, base, 0)
		b.Stq(tmp, base, 8)
	})
	return b.Build()
}

// twoFrameProgram is the shortest kind of program whose trace fills a
// frame and starts a second: a counted loop of two records per iteration.
func twoFrameProgram() *isa.Program {
	b := asm.New("frames")
	b.Loop(isa.R(1), chunkRecords/2+1, func() {})
	return b.Build()
}

// encodeV1 renders tr in the momtrace 1 layout that momtrace 2 replaced:
// the same header under that magic, then per chunk a 16-byte prelude
// (record, address and stride counts, CRC32 of the payload) and a payload
// of every record's static index in four bytes, the meta bytes, and each
// address and stride in eight.
func encodeV1(tr *Trace) []byte {
	out := []byte(strings.Replace(tr.header(), fileMagic, "momtrace 1", 1))
	for i := range tr.chunks {
		c := &tr.chunks[i]
		at := len(out)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c.meta)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c.ea)))
		out = binary.LittleEndian.AppendUint32(out, uint32(len(c.stride)))
		out = append(out, 0, 0, 0, 0)
		si := c.first
		for _, meta := range c.meta {
			out = binary.LittleEndian.AppendUint32(out, uint32(si))
			si = tr.flow.Next(si, meta)
		}
		out = append(out, c.meta...)
		for _, v := range c.ea {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		for _, v := range c.stride {
			out = binary.LittleEndian.AppendUint64(out, uint64(v))
		}
		binary.LittleEndian.PutUint32(out[at+12:], crc32.ChecksumIEEE(out[at+16:]))
	}
	return out
}

// decodeCase is an artifact of prog whose frames verify but that Decode
// must refuse, and the text of the check that refuses it.
type decodeCase struct {
	name, want string
	prog       *isa.Program
	data       []byte
}

// decodeCases edits a fresh capture of the seed program or of
// twoFrameProgram and encodes it with WriteTo, so every frame's checksum
// holds: the seed program's artifact in the momtrace 1 layout; the second
// frame of twoFrameProgram's artifact starting one record late; a first
// index past the seed program's end; the seed trace's one taken branch
// marked not taken, so the flow falls through the final NOP and past the
// program's end with records left in the (last) frame; an address column
// one entry short of what the static classes along the flow imply; and a
// vector length past isa.MaxVL, which would overrun the memory model's
// element buffers in replay.
func decodeCases(t testing.TB) []decodeCase {
	t.Helper()
	capture := func(p *isa.Program) *Trace {
		tr, err := Capture(emu.New(p), testMaxSteps, 0)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	artifact := func(tr *Trace) []byte {
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	p, long := fuzzSeedProgram("seed"), twoFrameProgram()

	late := capture(long)
	c := &late.chunks[1]
	c.first = late.flow.Next(c.first, c.meta[0])

	outside := capture(p)
	outside.chunks[0].first = 1 << 20

	fallThrough := capture(p)
	var taken []int
	for k, meta := range fallThrough.chunks[0].meta {
		if meta&MetaTaken != 0 {
			taken = append(taken, k)
		}
	}
	if len(taken) != 1 {
		t.Fatalf("the seed trace holds %d taken branches, want 1", len(taken))
	}
	fallThrough.chunks[0].meta[taken[0]] &^= MetaTaken

	short := capture(p)
	short.chunks[0].ea = short.chunks[0].ea[1:]

	overVL := capture(p)
	overVL.chunks[0].meta[0] = isa.MaxVL + 1

	return []decodeCase{
		{"momtrace 1 artifact", `header "momtrace 1 `, p, encodeV1(capture(p))},
		{"frame start off the flow", "frame 1 starts at static index", long, artifact(late)},
		{"first index out of range", "static index 1048576 out of range", p, artifact(outside)},
		{"flow past the program's end", fmt.Sprintf("static index %d out of range", len(p.Insts)), p, artifact(fallThrough)},
		{"column count mismatch", "sparse columns", p, artifact(short)},
		{"vector length over MaxVL", fmt.Sprintf("vector length %d over", isa.MaxVL+1), p, artifact(overVL)},
	}
}

// TestDecodeChecksFlow: Decode refuses, each at the check that names it,
// an artifact of the replaced layout, a frame that does not start where the
// previous frame's flow leads, a static index outside the program, first
// or derived, address and stride columns that do not match the static
// classes along the flow, and a vector length no machine has.
func TestDecodeChecksFlow(t *testing.T) {
	for _, c := range decodeCases(t) {
		if _, err := Decode(bytes.NewReader(c.data), c.prog); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode gave %v, want ErrFormat at %q", c.name, err, c.want)
		}
	}
}

// FuzzDecode: Decode never crashes on any bytes, and an artifact it
// accepts re-encodes to exactly those bytes. Each input is decoded for
// fuzzSeedProgram and for twoFrameProgram. Seeds are the artifact of
// fuzzSeedProgram, another program's artifact, the damaged forms of the
// tests above, decodeCases and headerVariants.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 20s ./internal/trace/
func FuzzDecode(f *testing.F) {
	p := fuzzSeedProgram("seed")
	var blobs [][]byte
	for _, prog := range []*isa.Program{p, fuzzSeedProgram("other")} {
		tr, err := Capture(emu.New(prog), testMaxSteps, 0)
		if err != nil {
			f.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			f.Fatal(err)
		}
		blobs = append(blobs, buf.Bytes())
	}
	blob := blobs[0]
	headerLen := bytes.IndexByte(blob, '\n') + 1
	f.Add(blob)
	f.Add(blobs[1])
	f.Add(blob[:headerLen])
	f.Add(blob[:headerLen+(len(blob)-headerLen)/2])
	f.Add(append(append([]byte(nil), blob...), 0))
	f.Add(bombHeader(p))
	for _, c := range decodeCases(f) {
		f.Add(c.data)
	}
	for _, v := range headerVariants(f, blob) {
		f.Add(v.data)
	}
	progs := []*isa.Program{p, twoFrameProgram()}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, p := range progs {
			tr, err := Decode(bytes.NewReader(data), p)
			if err != nil {
				if !errors.Is(err, ErrFormat) {
					t.Fatalf("Decode error %v does not wrap ErrFormat", err)
				}
				continue
			}
			var buf bytes.Buffer
			if _, err := tr.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), data) {
				t.Fatalf("accepted artifact re-encodes to %d different bytes (input %d)", buf.Len(), len(data))
			}
		}
	})
}

// TestFuzzSeedProgram: the seed program's trace holds every record kind
// and encodes to less than 2 KB.
func TestFuzzSeedProgram(t *testing.T) {
	p := fuzzSeedProgram("seed")
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[isa.Class]bool{}
	taken := map[bool]bool{}
	for r := tr.Reader(); ; {
		d, ok := r.Next()
		if !ok {
			break
		}
		classes[d.Class] = true
		if d.Class == isa.ClassBranch {
			taken[d.Taken] = true
		}
	}
	for _, c := range []isa.Class{isa.ClassIntSimple, isa.ClassLoad, isa.ClassStore, isa.ClassMomLoad, isa.ClassMomStore, isa.ClassBranch} {
		if !classes[c] {
			t.Errorf("the seed trace has no %s record", c)
		}
	}
	if !taken[true] || !taken[false] {
		t.Errorf("the seed trace's branches are taken %v, want both outcomes", taken)
	}
	if n := len(encode(t, tr)); n >= 2048 {
		t.Errorf("the seed artifact is %d bytes, want less than 2 KB", n)
	}
}
