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
		with("tab after momtrace", "momtrace\t1 "+fp+" "+records+" "+chunks+"\n"),
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

// wideAddress returns a copy of blob, an artifact of one frame whose first
// memory record is a vector access, with that record's effective address
// set to 2^32 and the frame's checksum redone: a frame that verifies but
// holds an address a trace in memory cannot.
func wideAddress(blob []byte) []byte {
	data := append([]byte(nil), blob...)
	payload, crc := frameAt(data, 0)
	nrec := int(binary.LittleEndian.Uint32(data[bytes.IndexByte(data, '\n')+1:]))
	binary.LittleEndian.PutUint64(payload[5*nrec:], 1<<32)
	binary.LittleEndian.PutUint32(crc, crc32.ChecksumIEEE(payload))
	return data
}

// TestDecodeRefusesWideAddress: an effective address of 2^32 or more is
// refused at the frame that holds it, so every accepted artifact fits a
// trace in memory and re-encodes to its own bytes.
func TestDecodeRefusesWideAddress(t *testing.T) {
	p := fuzzSeedProgram("seed")
	tr, err := Capture(emu.New(p), testMaxSteps, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(bytes.NewReader(wideAddress(encode(t, tr))), p)
	if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), "0x100000000 does not fit in 32 bits") {
		t.Fatalf("Decode gave %v, want ErrFormat for address 0x100000000", err)
	}
}

// TestEncodedSizeMultiChunk: EncodedSize, summed frame by frame, is the
// byte count WriteTo writes for a trace of several frames with scalar and
// vector memory records (mpeg2decode on MOM at test scale), and the trace
// holds fewer bytes in memory than in its artifact.
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
	if n := int64(len(encode(t, tr))); tr.Bytes() >= n {
		t.Fatalf("the trace holds %d bytes in memory, its artifact %d", tr.Bytes(), n)
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

// frameAt returns the payload of frame i of an artifact and the prelude
// slot of its checksum, both views of blob.
func frameAt(blob []byte, i int) (payload, crc []byte) {
	at := bytes.IndexByte(blob, '\n') + 1
	for {
		hdr := blob[at : at+frameHeaderLen]
		size := int(frameSize(int(binary.LittleEndian.Uint32(hdr[0:])),
			int(binary.LittleEndian.Uint32(hdr[4:])), int(binary.LittleEndian.Uint32(hdr[8:]))))
		if i == 0 {
			return blob[at+frameHeaderLen : at+frameHeaderLen+size], hdr[12:]
		}
		at += frameHeaderLen + size
		i--
	}
}

// flowCase is an artifact of prog whose frames verify but whose stored
// static indices break the control flow, and the check that must reject
// it.
type flowCase struct {
	name, want string
	prog       *isa.Program
	data       []byte
}

// flowCases stores, in a copy of an artifact with its checksum redone, one
// static index the control flow does not lead to: mid-frame, in the seed
// program's artifact (a record repeating its predecessor's index, both ALU
// records, so the address and stride columns still match); at the start of
// the second frame of twoFrameProgram's artifact; and a first index past
// the seed program's end.
func flowCases(t testing.TB) []flowCase {
	t.Helper()
	artifact := func(p *isa.Program) []byte {
		tr, err := Capture(emu.New(p), testMaxSteps, 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	store := func(blob []byte, frame, rec int, si uint32) []byte {
		data := append([]byte(nil), blob...)
		payload, crc := frameAt(data, frame)
		binary.LittleEndian.PutUint32(payload[4*rec:], si)
		binary.LittleEndian.PutUint32(crc, crc32.ChecksumIEEE(payload))
		return data
	}
	p := fuzzSeedProgram("seed")
	seed := artifact(p)
	payload, _ := frameAt(seed, 0)
	static := buildStatic(p)
	if si := binary.LittleEndian.Uint32(payload[0:]); static[si].mem != memNone || si != 0 ||
		static[binary.LittleEndian.Uint32(payload[4:])].mem != memNone {
		t.Fatal("the seed trace does not start with two ALU records")
	}
	long := twoFrameProgram()
	frames := artifact(long)
	second, _ := frameAt(frames, 1)
	return []flowCase{
		{"index off the flow mid-frame", "where control flow leads to 1", p, store(seed, 0, 1, 0)},
		{"frame start off the flow", "where control flow leads to", long,
			store(frames, 1, 0, binary.LittleEndian.Uint32(second[4:]))},
		{"first index out of range", "out of range", p, store(seed, 0, 0, uint32(len(p.Insts)))},
	}
}

// TestDecodeChecksFlow: Decode rejects a stored static index that the
// control flow does not lead to, wherever it sits, and a first index
// outside the program, each at the check that names it.
func TestDecodeChecksFlow(t *testing.T) {
	for _, c := range flowCases(t) {
		if _, err := Decode(bytes.NewReader(c.data), c.prog); !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Decode gave %v, want ErrFormat at %q", c.name, err, c.want)
		}
	}
}

// FuzzDecode: Decode never crashes on any bytes, and an artifact it
// accepts re-encodes to exactly those bytes. Each input is decoded for
// fuzzSeedProgram and for twoFrameProgram. Seeds are the artifact of
// fuzzSeedProgram, another program's artifact, the damaged forms of the
// tests above, the artifact with a wide address, flowCases and
// headerVariants.
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
	f.Add(wideAddress(blob))
	for _, c := range flowCases(f) {
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
