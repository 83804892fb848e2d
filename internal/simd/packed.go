// Package simd implements bit-exact packed fixed-point arithmetic on 64-bit
// multimedia words, plus the 192-bit packed accumulators used by the MDMX
// and MOM instruction sets.
//
// A 64-bit word is viewed as 8 byte lanes (B), 4 halfword lanes (H) or
// 2 word lanes (W), little-endian: lane i of width w occupies bits
// [i*w, (i+1)*w).
package simd

// ---- Lane access ----

// GetB returns byte lane i (0..7).
func GetB(x uint64, i int) uint8 { return uint8(x >> (uint(i) * 8)) }

// GetH returns halfword lane i (0..3).
func GetH(x uint64, i int) uint16 { return uint16(x >> (uint(i) * 16)) }

// GetW returns word lane i (0..1).
func GetW(x uint64, i int) uint32 { return uint32(x >> (uint(i) * 32)) }

// SetB returns x with byte lane i replaced by v.
func SetB(x uint64, i int, v uint8) uint64 {
	sh := uint(i) * 8
	return x&^(0xff<<sh) | uint64(v)<<sh
}

// SetH returns x with halfword lane i replaced by v.
func SetH(x uint64, i int, v uint16) uint64 {
	sh := uint(i) * 16
	return x&^(0xffff<<sh) | uint64(v)<<sh
}

// PackB builds a word from 8 byte lanes.
func PackB(b [8]uint8) uint64 {
	var x uint64
	for i, v := range b {
		x |= uint64(v) << (uint(i) * 8)
	}
	return x
}

// PackH builds a word from 4 halfword lanes.
func PackH(h [4]uint16) uint64 {
	var x uint64
	for i, v := range h {
		x |= uint64(v) << (uint(i) * 16)
	}
	return x
}

// ---- Saturation helpers ----

// SatS8 clamps v to [-128, 127].
func SatS8(v int32) int8 {
	if v < -128 {
		return -128
	}
	if v > 127 {
		return 127
	}
	return int8(v)
}

// SatU8 clamps v to [0, 255].
func SatU8(v int32) uint8 {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return uint8(v)
}

// SatS16 clamps v to [-32768, 32767].
func SatS16(v int64) int16 {
	if v < -32768 {
		return -32768
	}
	if v > 32767 {
		return 32767
	}
	return int16(v)
}

// SatU16 clamps v to [0, 65535].
func SatU16(v int64) uint16 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return uint16(v)
}

// ---- Per-lane map helpers ----

func mapB(a, b uint64, f func(x, y uint8) uint8) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		r |= uint64(f(GetB(a, i), GetB(b, i))) << (uint(i) * 8)
	}
	return r
}

func mapH(a, b uint64, f func(x, y uint16) uint16) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r |= uint64(f(GetH(a, i), GetH(b, i))) << (uint(i) * 16)
	}
	return r
}

func mapW(a, b uint64, f func(x, y uint32) uint32) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r |= uint64(f(GetW(a, i), GetW(b, i))) << (uint(i) * 32)
	}
	return r
}

// ---- Add / subtract ----

// AddB adds byte lanes with wraparound.
func AddB(a, b uint64) uint64 { return mapB(a, b, func(x, y uint8) uint8 { return x + y }) }

// AddH adds halfword lanes with wraparound.
func AddH(a, b uint64) uint64 { return mapH(a, b, func(x, y uint16) uint16 { return x + y }) }

// AddW adds word lanes with wraparound.
func AddW(a, b uint64) uint64 { return mapW(a, b, func(x, y uint32) uint32 { return x + y }) }

// AddSB adds byte lanes with signed saturation.
func AddSB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		return uint8(SatS8(int32(int8(x)) + int32(int8(y))))
	})
}

// AddSH adds halfword lanes with signed saturation.
func AddSH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		return uint16(SatS16(int64(int16(x)) + int64(int16(y))))
	})
}

// AddUSB adds byte lanes with unsigned saturation.
func AddUSB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 { return SatU8(int32(x) + int32(y)) })
}

// AddUSH adds halfword lanes with unsigned saturation.
func AddUSH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 { return SatU16(int64(x) + int64(y)) })
}

// SubB subtracts byte lanes with wraparound.
func SubB(a, b uint64) uint64 { return mapB(a, b, func(x, y uint8) uint8 { return x - y }) }

// SubH subtracts halfword lanes with wraparound.
func SubH(a, b uint64) uint64 { return mapH(a, b, func(x, y uint16) uint16 { return x - y }) }

// SubW subtracts word lanes with wraparound.
func SubW(a, b uint64) uint64 { return mapW(a, b, func(x, y uint32) uint32 { return x - y }) }

// SubSB subtracts byte lanes with signed saturation.
func SubSB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		return uint8(SatS8(int32(int8(x)) - int32(int8(y))))
	})
}

// SubSH subtracts halfword lanes with signed saturation.
func SubSH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		return uint16(SatS16(int64(int16(x)) - int64(int16(y))))
	})
}

// SubUSB subtracts byte lanes with unsigned saturation (floor at 0).
func SubUSB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 { return SatU8(int32(x) - int32(y)) })
}

// SubUSH subtracts halfword lanes with unsigned saturation.
func SubUSH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 { return SatU16(int64(x) - int64(y)) })
}

// ---- Multiply ----

// MulLH multiplies halfword lanes, keeping the low 16 bits.
func MulLH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		return uint16(int32(int16(x)) * int32(int16(y)))
	})
}

// MulHH multiplies halfword lanes (signed), keeping the high 16 bits.
func MulHH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		return uint16(uint32(int32(int16(x))*int32(int16(y))) >> 16)
	})
}

// MulHUH multiplies halfword lanes (unsigned), keeping the high 16 bits.
func MulHUH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		return uint16(uint32(x) * uint32(y) >> 16)
	})
}

// MAddH multiplies halfword lanes (signed) and adds adjacent pairs of the
// 32-bit products, producing 2 word lanes (MMX PMADDWD semantics).
func MAddH(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		p0 := int32(int16(GetH(a, 2*i))) * int32(int16(GetH(b, 2*i)))
		p1 := int32(int16(GetH(a, 2*i+1))) * int32(int16(GetH(b, 2*i+1)))
		r |= uint64(uint32(p0+p1)) << (uint(i) * 32)
	}
	return r
}

// ---- Average / absolute difference / SAD ----

// AvgB averages unsigned byte lanes with upward rounding.
func AvgB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		return uint8((uint16(x) + uint16(y) + 1) >> 1)
	})
}

// AvgH averages unsigned halfword lanes with upward rounding.
func AvgH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		return uint16((uint32(x) + uint32(y) + 1) >> 1)
	})
}

// AbsDB computes |a-b| over unsigned byte lanes.
func AbsDB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		if x > y {
			return x - y
		}
		return y - x
	})
}

// AbsDH computes |a-b| over signed halfword lanes.
func AbsDH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		d := int32(int16(x)) - int32(int16(y))
		if d < 0 {
			d = -d
		}
		return uint16(d)
	})
}

// SADBW sums |a-b| over the 8 unsigned byte lanes into a single 64-bit value.
func SADBW(a, b uint64) uint64 {
	var s uint64
	for i := 0; i < 8; i++ {
		x, y := GetB(a, i), GetB(b, i)
		if x > y {
			s += uint64(x - y)
		} else {
			s += uint64(y - x)
		}
	}
	return s
}

// ---- Min / max ----

// MinUB takes the per-lane unsigned byte minimum.
func MinUB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		if x < y {
			return x
		}
		return y
	})
}

// MaxUB takes the per-lane unsigned byte maximum.
func MaxUB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		if x > y {
			return x
		}
		return y
	})
}

// MinSH takes the per-lane signed halfword minimum.
func MinSH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		if int16(x) < int16(y) {
			return x
		}
		return y
	})
}

// MaxSH takes the per-lane signed halfword maximum.
func MaxSH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		if int16(x) > int16(y) {
			return x
		}
		return y
	})
}

// ---- Compares (mask results: all-ones on true) ----

// CmpEqB compares byte lanes for equality.
func CmpEqB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		if x == y {
			return 0xff
		}
		return 0
	})
}

// CmpEqH compares halfword lanes for equality.
func CmpEqH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		if x == y {
			return 0xffff
		}
		return 0
	})
}

// CmpGtB compares signed byte lanes (a > b).
func CmpGtB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		if int8(x) > int8(y) {
			return 0xff
		}
		return 0
	})
}

// CmpGtH compares signed halfword lanes (a > b).
func CmpGtH(a, b uint64) uint64 {
	return mapH(a, b, func(x, y uint16) uint16 {
		if int16(x) > int16(y) {
			return 0xffff
		}
		return 0
	})
}

// CmpGtUB compares unsigned byte lanes (a > b).
func CmpGtUB(a, b uint64) uint64 {
	return mapB(a, b, func(x, y uint8) uint8 {
		if x > y {
			return 0xff
		}
		return 0
	})
}

// ---- Shifts (sh is masked per lane width) ----

// SllH shifts halfword lanes left.
func SllH(a uint64, sh uint) uint64 {
	if sh >= 16 {
		return 0
	}
	return mapH(a, 0, func(x, _ uint16) uint16 { return x << sh })
}

// SllW shifts word lanes left.
func SllW(a uint64, sh uint) uint64 {
	if sh >= 32 {
		return 0
	}
	return mapW(a, 0, func(x, _ uint32) uint32 { return x << sh })
}

// SrlH shifts halfword lanes right (logical).
func SrlH(a uint64, sh uint) uint64 {
	if sh >= 16 {
		return 0
	}
	return mapH(a, 0, func(x, _ uint16) uint16 { return x >> sh })
}

// SrlW shifts word lanes right (logical).
func SrlW(a uint64, sh uint) uint64 {
	if sh >= 32 {
		return 0
	}
	return mapW(a, 0, func(x, _ uint32) uint32 { return x >> sh })
}

// SraH shifts halfword lanes right (arithmetic).
func SraH(a uint64, sh uint) uint64 {
	if sh > 15 {
		sh = 15
	}
	return mapH(a, 0, func(x, _ uint16) uint16 { return uint16(int16(x) >> sh) })
}

// SraW shifts word lanes right (arithmetic).
func SraW(a uint64, sh uint) uint64 {
	if sh > 31 {
		sh = 31
	}
	return mapW(a, 0, func(x, _ uint32) uint32 { return uint32(int32(x) >> sh) })
}

// ---- Pack / unpack ----

// PackSSHB packs 8 signed halfwords (a low, b high) into 8 signed-saturated bytes.
func PackSSHB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r |= uint64(uint8(SatS8(int32(int16(GetH(a, i)))))) << (uint(i) * 8)
		r |= uint64(uint8(SatS8(int32(int16(GetH(b, i)))))) << (uint(i+4) * 8)
	}
	return r
}

// PackUSHB packs 8 signed halfwords into 8 unsigned-saturated bytes.
func PackUSHB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r |= uint64(SatU8(int32(int16(GetH(a, i))))) << (uint(i) * 8)
		r |= uint64(SatU8(int32(int16(GetH(b, i))))) << (uint(i+4) * 8)
	}
	return r
}

// PackSSWH packs 4 signed words into 4 signed-saturated halfwords.
func PackSSWH(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r |= uint64(uint16(SatS16(int64(int32(GetW(a, i)))))) << (uint(i) * 16)
		r |= uint64(uint16(SatS16(int64(int32(GetW(b, i)))))) << (uint(i+2) * 16)
	}
	return r
}

// UnpackLB interleaves the low 4 bytes of a and b: a0 b0 a1 b1 a2 b2 a3 b3.
func UnpackLB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r |= uint64(GetB(a, i)) << (uint(2*i) * 8)
		r |= uint64(GetB(b, i)) << (uint(2*i+1) * 8)
	}
	return r
}

// UnpackHB interleaves the high 4 bytes of a and b.
func UnpackHB(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		r |= uint64(GetB(a, i+4)) << (uint(2*i) * 8)
		r |= uint64(GetB(b, i+4)) << (uint(2*i+1) * 8)
	}
	return r
}

// UnpackLH interleaves the low 2 halfwords of a and b.
func UnpackLH(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r |= uint64(GetH(a, i)) << (uint(2*i) * 16)
		r |= uint64(GetH(b, i)) << (uint(2*i+1) * 16)
	}
	return r
}

// UnpackHH interleaves the high 2 halfwords of a and b.
func UnpackHH(a, b uint64) uint64 {
	var r uint64
	for i := 0; i < 2; i++ {
		r |= uint64(GetH(a, i+2)) << (uint(2*i) * 16)
		r |= uint64(GetH(b, i+2)) << (uint(2*i+1) * 16)
	}
	return r
}

// UnpackLW places the low words of a and b side by side (a0 b0).
func UnpackLW(a, b uint64) uint64 {
	return uint64(GetW(a, 0)) | uint64(GetW(b, 0))<<32
}

// UnpackHW places the high words of a and b side by side (a1 b1).
func UnpackHW(a, b uint64) uint64 {
	return uint64(GetW(a, 1)) | uint64(GetW(b, 1))<<32
}

// SplatB broadcasts the low byte of v to all 8 lanes.
func SplatB(v uint64) uint64 {
	b := v & 0xff
	b |= b << 8
	b |= b << 16
	b |= b << 32
	return b
}

// SplatH broadcasts the low halfword of v to all 4 lanes.
func SplatH(v uint64) uint64 {
	h := v & 0xffff
	h |= h << 16
	h |= h << 32
	return h
}

// Select implements the per-bit conditional move: (a & mask) | (b &^ mask).
func Select(a, b, mask uint64) uint64 { return a&mask | b&^mask }
