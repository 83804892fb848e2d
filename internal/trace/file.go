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
// The si column holds every record's static index, though a trace in
// memory keeps only each chunk's first: WriteTo regenerates the column by
// Flow.Next, and Decode accepts a frame only if every stored index is the
// one Flow.Next derives from its predecessor, across frames too, before it
// drops the column. An accepted artifact therefore re-encodes to its own
// bytes.
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
	return headerLine(Fingerprint(t.prog), t.n, len(t.chunks))
}

// headerLine renders the artifact header line.
func headerLine(fp string, records uint64, chunks int) string {
	return fmt.Sprintf("%s %s %d %d\n", fileMagic, fp, records, chunks)
}

// EncodedSize returns the exact number of bytes WriteTo will emit: the
// header, and for each chunk a prelude, the four-byte si column and the
// columns Bytes counts.
func (t *Trace) EncodedSize() int64 {
	return int64(len(t.header())) + int64(len(t.chunks))*frameHeaderLen + 4*int64(t.n) + t.bytes
}

// frameSize is the payload byte count of one chunk frame.
func frameSize(nrec, nea, nstr int) int64 {
	return 4*int64(nrec) + ramSize(nrec, nea, nstr)
}

// appendFrame packs one chunk as a frame (prelude + columns) onto dst,
// deriving its si column by flow.
func appendFrame(dst []byte, c *chunk, flow Flow) []byte {
	payloadAt := len(dst) + frameHeaderLen
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(c.meta)))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(c.ea)))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(c.stride)))
	dst = append(dst, hdr[:]...)
	si := c.first
	for _, meta := range c.meta {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(si))
		si = flow.Next(si, meta)
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
		frame = appendFrame(frame[:0], &t.chunks[i], t.flow)
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
	// fmt.Sscanf also matches other spacing and leading zeros, which
	// WriteTo never writes: only the canonical line is accepted, so an
	// accepted artifact re-encodes to its own bytes.
	var fp string
	if _, err := fmt.Sscanf(line, fileMagic+" %16s %d %d\n", &fp, &records, &chunks); err != nil ||
		line != headerLine(fp, records, chunks) {
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

// readFrame reads and verifies one chunk frame into c, all but its first
// static index, and returns the frame's si column, a view of *scratch.
// last marks the final chunk, the only one allowed fewer than chunkRecords
// records.
func readFrame(br *bufio.Reader, c *chunk, scratch *[]byte, last bool) ([]byte, error) {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: frame prelude: %v", ErrFormat, err)
	}
	nrec := int(binary.LittleEndian.Uint32(hdr[0:]))
	nea := int(binary.LittleEndian.Uint32(hdr[4:]))
	nstr := int(binary.LittleEndian.Uint32(hdr[8:]))
	crc := binary.LittleEndian.Uint32(hdr[12:])
	if nrec <= 0 || nrec > chunkRecords || (!last && nrec != chunkRecords) ||
		nea > nrec || nstr > nea {
		return nil, fmt.Errorf("%w: frame shape %d/%d/%d", ErrFormat, nrec, nea, nstr)
	}
	size := frameSize(nrec, nea, nstr)
	if int64(cap(*scratch)) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("%w: frame payload: %v", ErrFormat, err)
	}
	if crc32.ChecksumIEEE(buf) != crc {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrFormat)
	}
	c.meta = make([]uint8, nrec)
	c.ea = make([]uint64, nea)
	c.stride = make([]int64, nstr)
	copy(c.meta, buf[4*nrec:])
	off := 5 * nrec
	for i := 0; i < nea; i++ {
		c.ea[i] = binary.LittleEndian.Uint64(buf[off+8*i:])
	}
	off += 8 * nea
	for i := 0; i < nstr; i++ {
		c.stride[i] = int64(binary.LittleEndian.Uint64(buf[off+8*i:]))
	}
	return buf[:4*nrec], nil
}

// checkChunk validates a decoded chunk against the static program and sets
// its first index. Every stored static index (sis, the frame's si column)
// must index the program, and each must be the one flow derives from its
// predecessor; next is the index flow derives from the previous chunk's
// last record, or -1 for the first chunk. The ea/stride population must
// match the memory classes the indices imply. Otherwise replay would
// derive another stream than the artifact stores, or walk the sparse
// columns out of step. checkChunk returns the index flow derives from the
// chunk's last record.
func checkChunk(c *chunk, sis []byte, static []sinst, flow Flow, next int32) (int32, error) {
	var nea, nstr int
	for i, meta := range c.meta {
		si := int32(binary.LittleEndian.Uint32(sis[4*i:]))
		if si < 0 || int(si) >= len(static) {
			return 0, fmt.Errorf("%w: static index %d out of range", ErrFormat, si)
		}
		if next >= 0 && si != next {
			return 0, fmt.Errorf("%w: static index %d where control flow leads to %d", ErrFormat, si, next)
		}
		if i == 0 {
			c.first = si
		}
		switch static[si].mem {
		case memScalar:
			nea++
		case memVector:
			nea++
			nstr++
		}
		next = flow.Next(si, meta)
	}
	if nea != len(c.ea) || nstr != len(c.stride) {
		return 0, fmt.Errorf("%w: sparse columns %d/%d, static classes imply %d/%d",
			ErrFormat, len(c.ea), len(c.stride), nea, nstr)
	}
	return next, nil
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
	// Chunks are appended as their frames verify: the header's count is a
	// claim, and only frames actually read may cost memory.
	t := &Trace{prog: p, n: records, static: buildStatic(p), flow: NewFlow(p)}
	var scratch []byte
	var got uint64
	next := int32(-1)
	for i := 0; i < chunks; i++ {
		var c chunk
		sis, err := readFrame(br, &c, &scratch, i == chunks-1)
		if err != nil {
			return nil, err
		}
		if next, err = checkChunk(&c, sis, t.static, t.flow, next); err != nil {
			return nil, err
		}
		t.chunks = append(t.chunks, c)
		t.bytes += ramSize(len(c.meta), len(c.ea), len(c.stride))
		got += uint64(len(c.meta))
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after %d chunks", ErrFormat, chunks)
	}
	if got != records {
		return nil, fmt.Errorf("%w: %d records decoded, header says %d", ErrFormat, got, records)
	}
	return t, nil
}
