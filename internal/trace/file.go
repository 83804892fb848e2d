package trace

// The on-disk trace artifact format. A recorded trace is persisted as a
// self-verifying byte stream so momserver restarts, momsim invocations and
// CI runs replay yesterday's capture instead of re-emulating:
//
//	momtrace 1 <fingerprint> <records> <chunks>\n
//	chunk frame 0
//	chunk frame 1
//	...
//
// The header names the format version, a fingerprint of the static program
// the dynamic stream belongs to, and the exact record/chunk counts. Each
// chunk frame is a 16-byte little-endian prelude — record count, effective-
// address count, stride count, CRC32 of the frame payload — followed by the
// chunk's columns (si, meta, ea, stride) packed little-endian. Per-frame
// checksums instead of one trailing digest let the decoder verify each
// frame as it reads it, through one frame of scratch memory, so any
// corruption — bit rot, truncation, a record-count lie — is caught no later
// than the frame it occurs in.
//
// The static program is deliberately NOT serialized: workload builders are
// deterministic, so the loader rebuilds the program from (workload, ISA,
// scale) and the fingerprint check rejects artifacts written by a different
// generator version. Every decode failure is ErrFormat (or an I/O error)
// and callers treat it as a cache miss, mirroring internal/store's
// corruption-reads-as-miss discipline.

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/isa"
)

// FormatVersion is the trace artifact encoding version. It participates in
// the artifact content address, so a format change simply misses on every
// old key rather than misreading old bytes.
const FormatVersion = 1

// fileMagic heads every artifact; the trailing digit is FormatVersion.
const fileMagic = "momtrace 1"

// ErrFormat reports an artifact that is not a valid trace encoding for the
// expected program: wrong magic or version, fingerprint mismatch, bad
// framing, checksum failure, truncation. Callers treat it as a miss.
var ErrFormat = errors.New("trace: bad artifact")

// frameHeaderLen is the per-chunk prelude: nrec, nea, nstride, crc32.
const frameHeaderLen = 16

// Fingerprint digests the replay-relevant identity of a program — name,
// instruction stream, data image, layout — to 16 hex characters. Two
// programs with equal fingerprints reconstruct identical dynamic records
// from the same trace columns.
func Fingerprint(p *isa.Program) string {
	h := sha256.New()
	var buf [8 * 6]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(len(p.Name)))
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(p.Insts)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(len(p.Data)))
	binary.LittleEndian.PutUint64(buf[24:], p.DataBase)
	binary.LittleEndian.PutUint64(buf[32:], p.MemSize)
	h.Write(buf[:40])
	io.WriteString(h, p.Name)
	reg := func(r isa.Reg) uint64 { return uint64(r.Kind)<<8 | uint64(r.Idx) }
	for i := range p.Insts {
		in := &p.Insts[i]
		binary.LittleEndian.PutUint64(buf[0:], uint64(in.Op))
		binary.LittleEndian.PutUint64(buf[8:], reg(in.Dst))
		binary.LittleEndian.PutUint64(buf[16:], reg(in.Src[0]))
		binary.LittleEndian.PutUint64(buf[24:], reg(in.Src[1]))
		binary.LittleEndian.PutUint64(buf[32:], reg(in.Src[2]))
		binary.LittleEndian.PutUint64(buf[40:], uint64(in.Imm))
		h.Write(buf[:48])
		binary.LittleEndian.PutUint64(buf[0:], uint64(in.Target))
		h.Write(buf[:8])
	}
	h.Write(p.Data)
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:8])
}

// header renders the artifact header line for a trace.
func (t *Trace) header() string {
	return fmt.Sprintf("%s %s %d %d\n", fileMagic, Fingerprint(t.prog), t.n, len(t.chunks))
}

// EncodedSize returns the exact number of bytes WriteTo will emit.
func (t *Trace) EncodedSize() int64 {
	return int64(len(t.header())) + int64(len(t.chunks))*frameHeaderLen + t.bytes
}

// frameSize is the payload byte count of one chunk frame.
func frameSize(nrec, nea, nstr int) int64 {
	return int64(nrec)*bytesPerRecord + 8*int64(nea) + 8*int64(nstr)
}

// appendFrame packs one chunk as a frame (prelude + columns) onto dst.
func appendFrame(dst []byte, c *chunk) []byte {
	payloadAt := len(dst) + frameHeaderLen
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(c.si)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(c.ea)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(c.stride)))
	dst = append(dst, hdr[:]...)
	for _, v := range c.si {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(v))
	}
	dst = append(dst, c.meta...)
	for _, v := range c.ea {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	for _, v := range c.stride {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	crc := crc32.ChecksumIEEE(dst[payloadAt:])
	binary.LittleEndian.PutUint32(dst[payloadAt-4:payloadAt], crc)
	return dst
}

// WriteTo encodes the trace in the momtrace artifact format. The encoding
// is a pure function of the recording, so equal traces produce
// byte-identical artifacts.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var written int64
	n, err := io.WriteString(w, t.header())
	written += int64(n)
	if err != nil {
		return written, err
	}
	var frame []byte
	for i := range t.chunks {
		frame = appendFrame(frame[:0], &t.chunks[i])
		n, err := w.Write(frame)
		written += int64(n)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// readHeader parses and validates the artifact header against the program
// the caller expects the trace to replay.
func readHeader(br *bufio.Reader, p *isa.Program) (records uint64, chunks int, err error) {
	line, err := br.ReadString('\n')
	if err != nil {
		return 0, 0, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	var fp string
	if _, err := fmt.Sscanf(line, fileMagic+" %16s %d %d\n", &fp, &records, &chunks); err != nil {
		return 0, 0, fmt.Errorf("%w: header %q", ErrFormat, line)
	}
	if chunks < 0 || uint64(chunks) != (records+chunkRecords-1)/chunkRecords {
		return 0, 0, fmt.Errorf("%w: %d chunks cannot hold %d records", ErrFormat, chunks, records)
	}
	if want := Fingerprint(p); fp != want {
		return 0, 0, fmt.Errorf("%w: program fingerprint %s, want %s for %s", ErrFormat, fp, want, p.Name)
	}
	return records, chunks, nil
}

// readFrame reads and verifies one chunk frame into c. last marks the final
// chunk, the only one allowed fewer than chunkRecords records.
func readFrame(br *bufio.Reader, c *chunk, scratch *[]byte, last bool) error {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: frame prelude: %v", ErrFormat, err)
	}
	nrec := int(binary.LittleEndian.Uint32(hdr[0:]))
	nea := int(binary.LittleEndian.Uint32(hdr[4:]))
	nstr := int(binary.LittleEndian.Uint32(hdr[8:]))
	crc := binary.LittleEndian.Uint32(hdr[12:])
	if nrec <= 0 || nrec > chunkRecords || (!last && nrec != chunkRecords) ||
		nea > nrec || nstr > nea {
		return fmt.Errorf("%w: frame shape %d/%d/%d", ErrFormat, nrec, nea, nstr)
	}
	size := frameSize(nrec, nea, nstr)
	if int64(cap(*scratch)) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return fmt.Errorf("%w: frame payload: %v", ErrFormat, err)
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return fmt.Errorf("%w: frame checksum mismatch", ErrFormat)
	}
	c.si = make([]int32, nrec)
	c.meta = make([]uint8, nrec)
	c.ea = make([]uint64, nea)
	c.stride = make([]int64, nstr)
	for i := 0; i < nrec; i++ {
		c.si[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	copy(c.meta, buf[4*nrec:])
	off := 5 * nrec
	for i := 0; i < nea; i++ {
		c.ea[i] = binary.LittleEndian.Uint64(buf[off+8*i:])
	}
	off += 8 * nea
	for i := 0; i < nstr; i++ {
		c.stride[i] = int64(binary.LittleEndian.Uint64(buf[off+8*i:]))
	}
	return nil
}

// checkChunk validates a decoded chunk's cross-column consistency against
// the static table: the si column must index the table, and the ea/stride
// population must match the memory classes it implies — otherwise replay
// would walk the sparse columns out of step.
func checkChunk(c *chunk, static []sinst) error {
	var nea, nstr int
	for _, si := range c.si {
		if si < 0 || int(si) >= len(static) {
			return fmt.Errorf("%w: static index %d out of range", ErrFormat, si)
		}
		switch static[si].mem {
		case memScalar:
			nea++
		case memVector:
			nea++
			nstr++
		}
	}
	if nea != len(c.ea) || nstr != len(c.stride) {
		return fmt.Errorf("%w: sparse columns %d/%d, static classes imply %d/%d",
			ErrFormat, len(c.ea), len(c.stride), nea, nstr)
	}
	return nil
}

// Decode materialises an artifact written by WriteTo back into a Trace for
// the given program. Any mismatch — version, fingerprint, framing,
// checksum, truncation — is an error wrapping ErrFormat.
func Decode(r io.Reader, p *isa.Program) (*Trace, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	records, chunks, err := readHeader(br, p)
	if err != nil {
		return nil, err
	}
	t := &Trace{prog: p, n: records, chunks: make([]chunk, chunks)}
	var scratch []byte
	for i := 0; i < chunks; i++ {
		c := &t.chunks[i]
		if err := readFrame(br, c, &scratch, i == chunks-1); err != nil {
			return nil, err
		}
		t.bytes += frameSize(len(c.si), len(c.ea), len(c.stride))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after %d chunks", ErrFormat, chunks)
	}
	var got uint64
	for i := range t.chunks {
		got += uint64(len(t.chunks[i].si))
	}
	if got != records {
		return nil, fmt.Errorf("%w: %d records decoded, header says %d", ErrFormat, got, records)
	}
	t.static = buildStatic(p)
	for i := range t.chunks {
		if err := checkChunk(&t.chunks[i], t.static); err != nil {
			return nil, err
		}
	}
	return t, nil
}
