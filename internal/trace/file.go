package trace

// The on-disk trace artifact format. A recorded trace is persisted as a
// self-verifying byte stream so momserver restarts, momsim invocations and
// CI runs replay yesterday's capture instead of re-emulating:
//
//	momtrace 2 <fingerprint> <records> <chunks>\n
//	chunk frame 0
//	chunk frame 1
//	...
//
// The header names the format version, a fingerprint of the static program
// the dynamic stream belongs to, and the exact record/chunk counts. A frame
// holds its chunk as memory does: a 20-byte prelude (record, effective-
// address and stride counts, the first record's static index, a CRC32 of
// the rest of the frame), then the columns: a meta byte per record, four
// bytes per address and eight per stride, all little-endian. Per-frame
// checksums let the decoder verify each frame as it reads it, through one
// frame of scratch memory, so any corruption — bit rot, truncation, a
// record-count lie — is caught no later than the frame it occurs in.
//
// Decode derives every later static index by Flow.Next, the rule every
// walker applies, and accepts a frame only if each index lies in the
// program, the frame starts where the previous frame's flow leads, and the
// address and stride counts match the static classes along that path. So
// replay walks an accepted frame in step, and an accepted artifact
// re-encodes to its own bytes.
//
// The static program is deliberately NOT serialized: workload builders are
// deterministic, so the loader rebuilds the program from (workload, ISA,
// scale) and the fingerprint check rejects artifacts written by a different
// generator version. Every decode failure is ErrFormat (or an I/O error)
// and callers treat it as a cache miss, mirroring internal/store's
// corruption-reads-as-miss discipline.

import (
	"bufio"
	"bytes"
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
const FormatVersion = 2

// fileMagic heads every artifact; the trailing digit is FormatVersion.
const fileMagic = "momtrace 2"

// ErrFormat reports an artifact that is not a valid trace encoding for the
// expected program: wrong magic or version, fingerprint mismatch, bad
// framing, checksum failure, truncation, a frame off the program's control
// flow. Callers treat it as a miss.
var ErrFormat = errors.New("trace: bad artifact")

// frameHeaderLen is the per-chunk prelude: nrec, nea, nstride, first, crc32.
const frameHeaderLen = 20

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
// header, a prelude per chunk and the chunks' columns, which Bytes counts.
func (t *Trace) EncodedSize() int64 {
	return int64(len(t.header())) + frameHeaderLen*int64(len(t.chunks)) + t.bytes
}

// frameCRC is a frame's checksum: the CRC32 of the rest of its prelude and
// its payload.
func frameCRC(prelude, payload []byte) uint32 {
	return crc32.Update(crc32.ChecksumIEEE(prelude[:16]), crc32.IEEETable, payload)
}

// appendFrame packs one chunk as a frame (prelude + columns) onto dst.
func appendFrame(dst []byte, c *chunk) []byte {
	at := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.meta)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.ea)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(c.stride)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(c.first))
	dst = append(dst, 0, 0, 0, 0) // the checksum, once the payload is in
	dst = append(dst, c.meta...)
	for _, v := range c.ea {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	for _, v := range c.stride {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	binary.LittleEndian.PutUint32(dst[at+16:], frameCRC(dst[at:], dst[at+frameHeaderLen:]))
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

// maxHeaderLen bounds the header line. The canonical one is at most 69
// bytes: the magic, a 16-digit fingerprint, two decimal counts of at most
// 20 digits, three spaces and the newline.
const maxHeaderLen = 80

// readHeader parses and validates the artifact header against the program
// the caller expects the trace to replay. It reads at most maxHeaderLen
// bytes looking for the line, so no error quotes more than that.
func readHeader(br *bufio.Reader, p *isa.Program) (records uint64, chunks int, err error) {
	head, err := br.Peek(maxHeaderLen)
	end := bytes.IndexByte(head, '\n')
	switch {
	case end < 0 && err == nil:
		return 0, 0, fmt.Errorf("%w: header longer than %d bytes: %q...", ErrFormat, maxHeaderLen, head[:32])
	case end < 0:
		return 0, 0, fmt.Errorf("%w: header: %v", ErrFormat, err)
	}
	line := string(head[:end+1])
	br.Discard(end + 1) // Peek buffered these bytes, so this cannot fail
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

// readFrame reads and verifies one chunk frame into c. last marks the
// final chunk, the only one allowed fewer than chunkRecords records.
func readFrame(br *bufio.Reader, c *chunk, scratch *[]byte, last bool) error {
	var hdr [frameHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return fmt.Errorf("%w: frame prelude: %v", ErrFormat, err)
	}
	nrec := int(binary.LittleEndian.Uint32(hdr[0:]))
	nea := int(binary.LittleEndian.Uint32(hdr[4:]))
	nstr := int(binary.LittleEndian.Uint32(hdr[8:]))
	if nrec <= 0 || nrec > chunkRecords || (!last && nrec != chunkRecords) ||
		nea > nrec || nstr > nea {
		return fmt.Errorf("%w: frame shape %d/%d/%d", ErrFormat, nrec, nea, nstr)
	}
	size := ramSize(nrec, nea, nstr)
	if int64(cap(*scratch)) < size {
		*scratch = make([]byte, size)
	}
	buf := (*scratch)[:size]
	if _, err := io.ReadFull(br, buf); err != nil {
		return fmt.Errorf("%w: frame payload: %v", ErrFormat, err)
	}
	if frameCRC(hdr[:], buf) != binary.LittleEndian.Uint32(hdr[16:]) {
		return fmt.Errorf("%w: frame checksum mismatch", ErrFormat)
	}
	c.first = int32(binary.LittleEndian.Uint32(hdr[12:]))
	c.meta = append([]uint8(nil), buf[:nrec]...)
	c.ea = make([]uint32, nea)
	for i := range c.ea {
		c.ea[i] = binary.LittleEndian.Uint32(buf[nrec+4*i:])
	}
	c.stride = make([]int64, nstr)
	for i := range c.stride {
		c.stride[i] = int64(binary.LittleEndian.Uint64(buf[nrec+4*nea+8*i:]))
	}
	return nil
}

// checkChunk validates a decoded chunk against the static program, so that
// replay neither indexes past the static table nor walks the sparse columns
// out of step: each static index flow derives from the chunk's first must
// index the program, each vector length must be at most isa.MaxVL, and the
// ea/stride counts must match the memory classes along that path. It
// returns the index flow derives from the last record.
func checkChunk(c *chunk, static []sinst, flow Flow) (int32, error) {
	var nea, nstr int
	si := c.first
	for _, meta := range c.meta {
		if si < 0 || int(si) >= len(static) {
			return 0, fmt.Errorf("%w: static index %d out of range", ErrFormat, si)
		}
		if vl := meta &^ MetaTaken; vl > isa.MaxVL {
			return 0, fmt.Errorf("%w: vector length %d over %d", ErrFormat, vl, isa.MaxVL)
		}
		switch static[si].mem {
		case memScalar:
			nea++
		case memVector:
			nea++
			nstr++
		}
		si = flow.Next(si, meta)
	}
	if nea != len(c.ea) || nstr != len(c.stride) {
		return 0, fmt.Errorf("%w: sparse columns %d/%d, static classes imply %d/%d",
			ErrFormat, len(c.ea), len(c.stride), nea, nstr)
	}
	return si, nil
}

// Decode materialises an artifact written by WriteTo back into a Trace for
// the given program. Any mismatch — version, fingerprint, framing,
// checksum, truncation, a frame off the program's control flow — is an
// error wrapping ErrFormat.
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
	var next int32
	for i := 0; i < chunks; i++ {
		var c chunk
		if err := readFrame(br, &c, &scratch, i == chunks-1); err != nil {
			return nil, err
		}
		if i > 0 && c.first != next {
			return nil, fmt.Errorf("%w: frame %d starts at static index %d where control flow leads to %d",
				ErrFormat, i, c.first, next)
		}
		if next, err = checkChunk(&c, t.static, t.flow); err != nil {
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
