package media

import "math"

// Fixed-point 8x8 DCT/IDCT.
//
// The transform is the orthonormal DCT-II with coefficients quantised to
// Q0.16 fixed point (c = round(D*65536), |c| <= 32767, every coefficient
// fits a signed halfword). Each 1-D output is
//
//	y[n] = sat16( (sum_u C[n][u]*x[u] + 32768) >> 16 )
//
// i.e. an exact integer multiply-accumulate, rounded half-up and saturated
// to 16 bits. Implementations are free to accumulate in any order and to
// use the even/odd (IDCT) or symmetric/antisymmetric (FDCT) decomposition:
// with the operand bounds below, no partial sum exceeds 31 bits, so 32-bit
// packed accumulation (MMX data promotion), 48-bit packed accumulators
// (MDMX/MOM) and 64-bit scalar accumulation all yield identical bits.
//
// The 2-D transforms run a column pass then a row pass:
//
//	IDCT: prescale x <<= 1;  two passes;  out = (y + 1) >> 1
//	FDCT: prescale x <<= 4;  two passes;  out = (y + 8) >> 4
//
// Bounds: IDCT inputs are dequantised coefficients (|x| <= 2047), so the
// prescaled input is <= 4094, pass-1 outputs <= sum|D| * 4094 < 10852 and
// pass-2 partial sums < 2^31. FDCT inputs are level-shifted pixels
// (|x| <= 128 -> prescaled <= 2048; the symmetric split doubles this to
// 4096), with the same comfortable margins.
// The FDCT prescale of 3 is chosen so that even worst-case inputs of
// +/-255 (P/B-frame residuals) can never overflow 32-bit packed partial
// sums in the promoted MMX/MOM accumulation path; the IDCT operates on
// genuine (quantised-transform) coefficient data, whose pass-1 outputs stay
// far below the 32-bit margin.
const (
	IDCTPre  = 1
	IDCTPost = 1
	FDCTPre  = 3
	FDCTPost = 3

	// DCTBias is the rounding bias added before the >>16.
	DCTBias = 32768
)

// DCTMat is the Q0.16 orthonormal DCT matrix: DCTMat[u][n] = round(
// c(u) * cos((2n+1) u pi / 16) * 65536), c(0)=sqrt(1/8), c(u)=1/2.
//
//	FDCT 1-D: X[u] = sat16((sum_n DCTMat[u][n]*x[n] + DCTBias) >> 16)
//	IDCT 1-D: x[n] = sat16((sum_u DCTMat[u][n]*X[u] + DCTBias) >> 16)
var DCTMat [8][8]int16

func init() {
	for u := 0; u < 8; u++ {
		cu := 0.5
		if u == 0 {
			cu = math.Sqrt(1.0 / 8.0)
		}
		for n := 0; n < 8; n++ {
			v := cu * math.Cos(float64(2*n+1)*float64(u)*math.Pi/16)
			DCTMat[u][n] = int16(math.Round(v * 65536))
		}
	}
}

// MulH16 is the packed multiply-high primitive (PMULHH semantics):
// the high 16 bits of the 32-bit signed product.
func MulH16(c, v int16) int16 { return int16((int32(c) * int32(v)) >> 16) }

// MACRow computes one 1-D output: sat16((sum coef[i]*x[i] + DCTBias)>>16).
func MACRow(coef, x []int16) int16 {
	var s int64
	for i := range coef {
		s += int64(coef[i]) * int64(x[i])
	}
	s = (s + DCTBias) >> 16
	if s > 32767 {
		s = 32767
	}
	if s < -32768 {
		s = -32768
	}
	return int16(s)
}

// idct1D transforms one 8-vector in place.
func idct1D(x *[8]int16) {
	var y [8]int16
	var col [8]int16
	for n := 0; n < 8; n++ {
		for u := 0; u < 8; u++ {
			col[u] = DCTMat[u][n]
		}
		y[n] = MACRow(col[:], x[:])
	}
	*x = y
}

// fdct1D transforms one 8-vector in place.
func fdct1D(x *[8]int16) {
	var y [8]int16
	for u := 0; u < 8; u++ {
		y[u] = MACRow(DCTMat[u][:], x[:])
	}
	*x = y
}

// IDCT8x8 computes the fixed-point 2-D inverse DCT of blk (row-major 64
// coefficients) in place.
func IDCT8x8(blk *[64]int16) {
	for i := range blk {
		blk[i] <<= IDCTPre
	}
	var v [8]int16
	for j := 0; j < 8; j++ { // column pass
		for n := 0; n < 8; n++ {
			v[n] = blk[n*8+j]
		}
		idct1D(&v)
		for n := 0; n < 8; n++ {
			blk[n*8+j] = v[n]
		}
	}
	for n := 0; n < 8; n++ { // row pass
		copy(v[:], blk[n*8:n*8+8])
		idct1D(&v)
		copy(blk[n*8:n*8+8], v[:])
	}
	for i := range blk {
		blk[i] = (blk[i] + 1<<(IDCTPost-1)) >> IDCTPost
	}
}

// FDCT8x8 computes the fixed-point 2-D forward DCT of blk in place. The
// input must already be level-shifted (range about [-128,127]).
func FDCT8x8(blk *[64]int16) {
	for i := range blk {
		blk[i] <<= FDCTPre
	}
	var v [8]int16
	for j := 0; j < 8; j++ { // column pass
		for n := 0; n < 8; n++ {
			v[n] = blk[n*8+j]
		}
		fdct1D(&v)
		for n := 0; n < 8; n++ {
			blk[n*8+j] = v[n]
		}
	}
	for n := 0; n < 8; n++ { // row pass
		copy(v[:], blk[n*8:n*8+8])
		fdct1D(&v)
		copy(blk[n*8:n*8+8], v[:])
	}
	for i := range blk {
		blk[i] = (blk[i] + 1<<(FDCTPost-1)) >> FDCTPost
	}
}
