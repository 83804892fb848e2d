package media

// Minimal MSB-first bit I/O used by the codecs' entropy stages. The scalar
// (Alpha) programs in the applications implement exactly this writer, so
// the simulated bitstreams can be compared byte-for-byte with the golden
// encoder output.

// BitWriter packs bits MSB-first.
type BitWriter struct {
	buf  []byte
	cur  uint64
	nbit uint
}

// WriteBits appends the low n bits of v (n <= 32).
func (w *BitWriter) WriteBits(v uint32, n uint) {
	if n == 0 {
		return
	}
	w.cur = w.cur<<n | uint64(v&(1<<n-1))
	w.nbit += n
	for w.nbit >= 8 {
		w.nbit -= 8
		w.buf = append(w.buf, byte(w.cur>>w.nbit))
	}
}

// Flush pads the final partial byte with zeros and returns the stream.
func (w *BitWriter) Flush() []byte {
	if w.nbit > 0 {
		w.buf = append(w.buf, byte(w.cur<<(8-w.nbit)))
		w.cur, w.nbit = 0, 0
	}
	return w.buf
}

// Len returns the number of complete bytes written so far.
func (w *BitWriter) Len() int { return len(w.buf) }

// BitReader reads bits MSB-first.
type BitReader struct {
	buf  []byte
	pos  int
	cur  uint64
	nbit uint
}

// NewBitReader wraps a byte stream.
func NewBitReader(b []byte) *BitReader { return &BitReader{buf: b} }

// ReadBits extracts n bits (n <= 32); reading past the end returns zeros.
func (r *BitReader) ReadBits(n uint) uint32 {
	for r.nbit < n {
		var b byte
		if r.pos < len(r.buf) {
			b = r.buf[r.pos]
			r.pos++
		}
		r.cur = r.cur<<8 | uint64(b)
		r.nbit += 8
	}
	r.nbit -= n
	return uint32(r.cur>>r.nbit) & (1<<n - 1)
}

// RLEEncodeBlock writes a zig-zag run-length code of a quantised block:
// for each nonzero coefficient, 6 bits of run, then a signed magnitude code
// (4-bit size + bits); terminated by run=63 sentinel.
func RLEEncodeBlock(w *BitWriter, blk *[64]int16) {
	run := 0
	for _, zz := range ZigZag {
		v := blk[zz]
		if v == 0 {
			run++
			continue
		}
		w.WriteBits(uint32(run), 6)
		writeSigned(w, int32(v))
		run = 0
	}
	w.WriteBits(63, 6)
}

func writeSigned(w *BitWriter, v int32) {
	neg := v < 0
	mag := v
	if neg {
		mag = -v
	}
	size := uint(0)
	for m := mag; m > 0; m >>= 1 {
		size++
	}
	w.WriteBits(uint32(size), 4)
	if size > 0 {
		sign := uint32(0)
		if neg {
			sign = 1
		}
		w.WriteBits(sign, 1)
		w.WriteBits(uint32(mag), size)
	}
}
