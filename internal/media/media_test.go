package media

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := NewRNG(7)
	worst := 0
	for trial := 0; trial < 200; trial++ {
		var blk, orig [64]int16
		for i := range blk {
			blk[i] = int16(rng.Intn(256) - 128) // level-shifted pixels
			orig[i] = blk[i]
		}
		FDCT8x8(&blk)
		IDCT8x8(&blk)
		for i := range blk {
			d := int(blk[i]) - int(orig[i])
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	// The truncating Q0.16 multiplies bias each pass slightly; an error of a
	// few grey levels is the expected cost of 16-bit transform arithmetic.
	if worst > 6 {
		t.Errorf("round-trip worst-case error %d > 6", worst)
	}
}

// idct8x8Float is the floating-point inverse DCT the fixed-point IDCT8x8
// is checked against.
func idct8x8Float(blk *[64]int16) [64]float64 {
	var out [64]float64
	for n := 0; n < 8; n++ {
		for m := 0; m < 8; m++ {
			var s float64
			for u := 0; u < 8; u++ {
				for v := 0; v < 8; v++ {
					cu, cv := 0.5, 0.5
					if u == 0 {
						cu = math.Sqrt(1.0 / 8.0)
					}
					if v == 0 {
						cv = math.Sqrt(1.0 / 8.0)
					}
					s += cu * cv * float64(blk[u*8+v]) *
						math.Cos(float64(2*n+1)*float64(u)*math.Pi/16) *
						math.Cos(float64(2*m+1)*float64(v)*math.Pi/16)
				}
			}
			out[n*8+m] = s
		}
	}
	return out
}

func TestIDCTMatchesFloatReference(t *testing.T) {
	rng := NewRNG(11)
	for trial := 0; trial < 50; trial++ {
		var blk [64]int16
		// sparse, quantised-looking coefficients
		for k := 0; k < 10; k++ {
			blk[rng.Intn(64)] = int16(rng.Intn(400) - 200)
		}
		ref := idct8x8Float(&blk)
		got := blk
		IDCT8x8(&got)
		var mse float64
		for i := range got {
			d := float64(got[i]) - ref[i]
			mse += d * d
		}
		mse /= 64
		if rmse := math.Sqrt(mse); rmse > 1.5 {
			t.Fatalf("trial %d: IDCT rmse vs float reference %.3f > 1.5", trial, rmse)
		}
	}
}

func TestDCTDCOnly(t *testing.T) {
	var blk [64]int16
	for i := range blk {
		blk[i] = 64
	}
	FDCT8x8(&blk)
	// DC of a constant-64 block: 8*64 = 512 under the orthonormal scaling.
	if blk[0] < 500 || blk[0] > 524 {
		t.Errorf("DC = %d, want ~512", blk[0])
	}
	for i := 1; i < 64; i++ {
		if blk[i] > 4 || blk[i] < -4 {
			t.Errorf("AC[%d] = %d, want ~0", i, blk[i])
		}
	}
}

func TestQuantizeRoundTrip(t *testing.T) {
	f := func(x int16, stepRaw uint8) bool {
		step := int32(stepRaw%64) + 1
		q := QuantizeCoef(x, step)
		d := DequantizeCoef(q, step)
		diff := int32(x) - int32(d)
		if diff < 0 {
			diff = -diff
		}
		// reciprocal rounding can add at most ~one extra step of error
		return diff <= 2*step
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestQuantizeZeroAndSigns(t *testing.T) {
	if QuantizeCoef(0, 16) != 0 {
		t.Error("quant(0) != 0")
	}
	for _, x := range []int16{5, 100, 3000, -5, -100, -3000} {
		q := QuantizeCoef(x, 16)
		if (x > 0 && q < 0) || (x < 0 && q > 0) {
			t.Errorf("quant(%d) = %d: sign flipped", x, q)
		}
		nq := QuantizeCoef(-x, 16)
		if nq != -q {
			t.Errorf("quant not odd-symmetric: q(%d)=%d q(%d)=%d", x, q, -x, nq)
		}
	}
}

func TestRGB2YCCPlausible(t *testing.T) {
	// Grey must map to Y=grey, Cb~128, Cr~128.
	for _, v := range []byte{0, 64, 128, 200, 255} {
		y, cb, cr := RGB2YCC(v, v, v)
		if d := int(y) - int(v); d < -2 || d > 2 {
			t.Errorf("grey %d -> Y %d", v, y)
		}
		if d := int(cb) - 128; d < -2 || d > 2 {
			t.Errorf("grey %d -> Cb %d", v, cb)
		}
		if d := int(cr) - 128; d < -2 || d > 2 {
			t.Errorf("grey %d -> Cr %d", v, cr)
		}
	}
	// Pure red has high Cr.
	_, _, cr := RGB2YCC(255, 0, 0)
	if cr < 200 {
		t.Errorf("red Cr = %d, want > 200", cr)
	}
}

func TestColorRoundTrip(t *testing.T) {
	rng := NewRNG(3)
	worst := 0
	for i := 0; i < 2000; i++ {
		r0, g0, b0 := byte(rng.Next()), byte(rng.Next()), byte(rng.Next())
		y, cb, cr := RGB2YCC(r0, g0, b0)
		r1, g1, b1 := YCC2RGB(y, cb, cr)
		for _, d := range []int{int(r0) - int(r1), int(g0) - int(g1), int(b0) - int(b1)} {
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 6 {
		t.Errorf("colour round-trip worst error %d > 6", worst)
	}
}

func TestSADProperties(t *testing.T) {
	a := GenFrame(64, 48, 0, 1)
	b := GenFrame(64, 48, 1, 1)
	if SAD16(a, 8, 8, a, 8, 8) != 0 {
		t.Error("SAD of identical blocks must be 0")
	}
	if SAD16(a, 8, 8, b, 8, 8) < 0 {
		t.Error("SAD must be non-negative")
	}
	if SAD16(a, 8, 8, b, 8, 8) != SAD16(b, 8, 8, a, 8, 8) {
		t.Error("SAD must be symmetric")
	}
	if SQD16(a, 8, 8, a, 8, 8) != 0 {
		t.Error("SQD of identical blocks must be 0")
	}
}

func TestSpiralOffsets(t *testing.T) {
	offs := SpiralOffsets(2)
	if len(offs) != 1+8+16 {
		t.Fatalf("spiral(2) has %d offsets, want 25", len(offs))
	}
	seen := map[[2]int]bool{}
	for _, o := range offs {
		if seen[o] {
			t.Fatalf("duplicate offset %v", o)
		}
		seen[o] = true
		if o[0] < -2 || o[0] > 2 || o[1] < -2 || o[1] > 2 {
			t.Fatalf("offset %v outside window", o)
		}
	}
}

func TestLTPFindsPitch(t *testing.T) {
	// Build a perfectly periodic signal: best lag must equal the period.
	period := 64
	n := 400
	base := make([]int16, period)
	for i := range base {
		base[i] = int16(1000*math.Sin(2*math.Pi*float64(i)/float64(period))) +
			int16(200*math.Sin(4*math.Pi*float64(i)/float64(period)+0.7))
	}
	sig := make([]int16, n)
	for i := range sig {
		sig[i] = base[i%period] // exactly periodic
	}
	pos := 240
	d := sig[pos : pos+SubframeLen]
	lag, corr := LTPParameters(d, sig, pos)
	// The 40-sample window covers only part of a 64-sample period, so the
	// raw cross-correlation peak can sit a sample or two off the period
	// (the unnormalised estimator GSM uses has the same property).
	if lag < period-2 || lag > period+2 {
		t.Errorf("best lag %d (corr %d), want %d +/- 2", lag, corr, period)
	}
	if corr <= 0 {
		t.Errorf("peak correlation %d not positive", corr)
	}
}

func TestBitIORoundTrip(t *testing.T) {
	f := func(vals []uint16, widths []uint8) bool {
		var w BitWriter
		n := len(vals)
		if len(widths) < n {
			n = len(widths)
		}
		wid := make([]uint, n)
		for i := 0; i < n; i++ {
			wid[i] = uint(widths[i]%16) + 1
			w.WriteBits(uint32(vals[i])&(1<<wid[i]-1), wid[i])
		}
		r := NewBitReader(w.Flush())
		for i := 0; i < n; i++ {
			if r.ReadBits(wid[i]) != uint32(vals[i])&(1<<wid[i]-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// rleDecodeBlock reverses RLEEncodeBlock.
func rleDecodeBlock(r *BitReader, blk *[64]int16) {
	*blk = [64]int16{}
	pos := 0
	for pos < 64 {
		run := int(r.ReadBits(6))
		if run == 63 {
			return
		}
		pos += run
		v := readSigned(r)
		if pos < 64 {
			blk[ZigZag[pos]] = int16(v)
			pos++
		}
	}
	r.ReadBits(6) // the sentinel after a full block
}

// readSigned reverses writeSigned.
func readSigned(r *BitReader) int32 {
	size := uint(r.ReadBits(4))
	if size == 0 {
		return 0
	}
	neg := r.ReadBits(1) == 1
	mag := int32(r.ReadBits(size))
	if neg {
		return -mag
	}
	return mag
}

func TestRLEBlockRoundTrip(t *testing.T) {
	rng := NewRNG(99)
	for trial := 0; trial < 100; trial++ {
		var blk [64]int16
		for k := 0; k < rng.Intn(20); k++ {
			blk[rng.Intn(64)] = int16(rng.Intn(2000) - 1000)
		}
		var w BitWriter
		RLEEncodeBlock(&w, &blk)
		var got [64]int16
		rleDecodeBlock(NewBitReader(w.Flush()), &got)
		if got != blk {
			t.Fatalf("trial %d: RLE round trip mismatch", trial)
		}
	}
}

func TestUpsampleProperties(t *testing.T) {
	in := GenFrame(24, 16, 0, 5)
	out := H2V2Upsample(in)
	if out.W != 48 || out.H != 32 {
		t.Fatalf("output %dx%d, want 48x32", out.W, out.H)
	}
	// A constant plane must stay constant.
	c := NewPlane(8, 8)
	for i := range c.Pix {
		c.Pix[i] = 77
	}
	up := H2V2Upsample(c)
	for i, v := range up.Pix {
		if v != 77 {
			t.Fatalf("constant plane changed at %d: %d", i, v)
		}
	}
}

func TestGenDeterminism(t *testing.T) {
	a := GenFrame(40, 30, 2, 9)
	b := GenFrame(40, 30, 2, 9)
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			t.Fatal("frame generation is not deterministic")
		}
	}
	p1 := GenPCM(100, 4)
	p2 := GenPCM(100, 4)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("PCM generation is not deterministic")
		}
	}
}

func TestSTP2PredictsPeriodicSignal(t *testing.T) {
	// A strongly autocorrelated signal must yield a residual with far less
	// energy than the input.
	sig := GenPCM(480, 77)
	pre := Preemphasis(sig)
	ac0 := AutoCorr(pre, 0)
	a1, a2 := STP2(ac0, AutoCorr(pre, 1), AutoCorr(pre, 2))
	a1q := DequantSTP(QuantSTP(a1))
	a2q := DequantSTP(QuantSTP(a2))
	res := make([]int16, len(pre))
	STPFilterFrame(pre, res, 0, len(pre), a1q, a2q)
	var eIn, eOut int64
	for i := range pre {
		eIn += int64(pre[i]) * int64(pre[i])
		eOut += int64(res[i]) * int64(res[i])
	}
	if eOut*2 >= eIn {
		t.Errorf("short-term predictor removed too little energy: in=%d out=%d", eIn, eOut)
	}
}

func TestSTP2Degenerate(t *testing.T) {
	a1, a2 := STP2(0, 0, 0)
	if a1 != 0 || a2 != 0 {
		t.Error("zero-energy frame must predict nothing")
	}
	a1, a2 = STP2(100, 200, 0) // den < 0
	if a1 != 0 || a2 != 0 {
		t.Error("degenerate denominator must predict nothing")
	}
}

func TestQuantSTPRange(t *testing.T) {
	for _, a := range []int16{-32768, -511, 0, 511, 32767} {
		q := QuantSTP(a)
		if q < -64 || q > 63 {
			t.Errorf("QuantSTP(%d) = %d outside 7-bit range", a, q)
		}
		d := DequantSTP(q)
		if diff := int(a) - int(d); diff < -32768 || diff > 32767 {
			t.Errorf("DequantSTP wildly off for %d", a)
		}
	}
}

func TestHuffmanCanonicalProperties(t *testing.T) {
	tab := JPEGACTable
	// Kraft inequality must hold with equality-or-less.
	sum := 0.0
	used := 0
	for s, l := range tab.Len {
		if l == 0 {
			continue
		}
		used++
		sum += 1 / float64(uint64(1)<<l)
		if l > MaxHuffLen {
			t.Fatalf("symbol %#x has over-long code %d", s, l)
		}
	}
	if used < 100 {
		t.Fatalf("only %d symbols coded", used)
	}
	if sum > 1.0000001 {
		t.Fatalf("Kraft sum %f > 1: not a prefix code", sum)
	}
	// No code is a prefix of another.
	for a, la := range tab.Len {
		for b, lb := range tab.Len {
			if a == b || la == 0 || lb == 0 || la > lb {
				continue
			}
			if tab.Code[b]>>(lb-la) == tab.Code[a] {
				t.Fatalf("code of %#x is a prefix of %#x", a, b)
			}
		}
	}
	// Frequent symbols get short codes: EOB must be among the shortest.
	for s, l := range tab.Len {
		if l > 0 && l < tab.Len[0x00] {
			t.Fatalf("EOB (len %d) longer than symbol %#x (len %d)", tab.Len[0x00], s, l)
		}
	}
}

func TestHuffmanBlockRoundTrip(t *testing.T) {
	rng := NewRNG(123)
	for trial := 0; trial < 200; trial++ {
		var blk [64]int16
		// Mixed density: some sparse, some dense, some with long runs.
		nnz := rng.Intn(30)
		for k := 0; k < nnz; k++ {
			blk[rng.Intn(64)] = int16(rng.Intn(4000) - 2000)
		}
		var w BitWriter
		HuffEncodeBlock(&w, &blk)
		var got [64]int16
		HuffDecodeBlock(NewBitReader(w.Flush()), &got)
		if got != blk {
			t.Fatalf("trial %d: huffman round trip mismatch", trial)
		}
	}
}

func TestHuffmanBeatsFixedRLE(t *testing.T) {
	// On realistic (sparse, small-valued) blocks the Huffman coder should
	// be tighter than the fixed-width RLE coder.
	rng := NewRNG(5)
	var hw, rw BitWriter
	for trial := 0; trial < 100; trial++ {
		var blk [64]int16
		for i := range blk {
			blk[i] = int16(rng.Intn(256) - 128)
		}
		FDCT8x8(&blk)
		QuantizeBlock(&blk, 100)
		HuffEncodeBlock(&hw, &blk)
		RLEEncodeBlock(&rw, &blk)
	}
	h, r := len(hw.Flush()), len(rw.Flush())
	if h >= r {
		t.Errorf("huffman (%d bytes) not tighter than fixed RLE (%d bytes)", h, r)
	}
}

func TestMagnitudeCoding(t *testing.T) {
	for _, v := range []int32{0, 1, -1, 2, -2, 255, -255, 2047, -2048, 32767, -32768} {
		s := magSize(v)
		if v != 0 && (v >= 1<<s || v <= -(1<<s) || (v < 1<<(s-1) && v > -(1<<(s-1))-0)) {
			// category bounds: 2^(s-1) <= |v| < 2^s
			av := v
			if av < 0 {
				av = -av
			}
			if av < 1<<(s-1) || av >= 1<<s {
				t.Fatalf("magSize(%d) = %d: category bounds violated", v, s)
			}
		}
		if got := magValue(magBits(v, s), s); got != v {
			t.Fatalf("magnitude round trip: %d -> %d", v, got)
		}
	}
}
