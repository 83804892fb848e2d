package simd

import (
	"testing"
	"testing/quick"
)

// refB applies a scalar byte function lane-wise (independent reference).
func refB(a, b uint64, f func(x, y int) int) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		x := int(a >> (8 * uint(i)) & 0xff)
		y := int(b >> (8 * uint(i)) & 0xff)
		r |= uint64(uint8(f(x, y))) << (8 * uint(i))
	}
	return r
}

func refH(a, b uint64, f func(x, y int) int) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		x := int(int16(a >> (16 * uint(i))))
		y := int(int16(b >> (16 * uint(i))))
		r |= uint64(uint16(f(x, y))) << (16 * uint(i))
	}
	return r
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// setB returns x with byte lane i replaced by v.
func setB(x uint64, i int, v uint8) uint64 {
	sh := uint(i) * 8
	return x&^(0xff<<sh) | uint64(v)<<sh
}

// packB builds a word from 8 byte lanes.
func packB(b [8]uint8) uint64 {
	var x uint64
	for i, v := range b {
		x |= uint64(v) << (uint(i) * 8)
	}
	return x
}

// packH builds a word from 4 halfword lanes.
func packH(h [4]uint16) uint64 {
	var x uint64
	for i, v := range h {
		x |= uint64(v) << (uint(i) * 16)
	}
	return x
}

func TestPackedOpsAgainstScalarReference(t *testing.T) {
	cases := []struct {
		name string
		got  func(a, b uint64) uint64
		want func(a, b uint64) uint64
	}{
		{"AddB", AddB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int { return x + y })
		}},
		{"AddUSB", AddUSB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int { return clamp(x+y, 0, 255) })
		}},
		{"SubUSB", SubUSB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int { return clamp(x-y, 0, 255) })
		}},
		{"AddSB", AddSB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int {
				return clamp(int(int8(uint8(x)))+int(int8(uint8(y))), -128, 127)
			})
		}},
		{"AddSH", AddSH, func(a, b uint64) uint64 {
			return refH(a, b, func(x, y int) int { return clamp(x+y, -32768, 32767) })
		}},
		{"SubSH", SubSH, func(a, b uint64) uint64 {
			return refH(a, b, func(x, y int) int { return clamp(x-y, -32768, 32767) })
		}},
		{"AvgB", AvgB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int { return (x + y + 1) / 2 })
		}},
		{"AbsDB", AbsDB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int {
				if x > y {
					return x - y
				}
				return y - x
			})
		}},
		{"MulLH", MulLH, func(a, b uint64) uint64 {
			return refH(a, b, func(x, y int) int { return x * y })
		}},
		{"MulHH", MulHH, func(a, b uint64) uint64 {
			return refH(a, b, func(x, y int) int { return (x * y) >> 16 })
		}},
		{"MinUB", MinUB, func(a, b uint64) uint64 {
			return refB(a, b, func(x, y int) int {
				if x < y {
					return x
				}
				return y
			})
		}},
		{"MaxSH", MaxSH, func(a, b uint64) uint64 {
			return refH(a, b, func(x, y int) int {
				xs, ys := int(int16(uint16(x))), int(int16(uint16(y)))
				if xs > ys {
					return xs
				}
				return ys
			})
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			f := func(a, b uint64) bool { return c.got(a, b) == c.want(a, b) }
			if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestSADBWMatchesSum(t *testing.T) {
	f := func(a, b uint64) bool {
		var want uint64
		for i := 0; i < 8; i++ {
			x, y := int(GetB(a, i)), int(GetB(b, i))
			if x > y {
				want += uint64(x - y)
			} else {
				want += uint64(y - x)
			}
		}
		return SADBW(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackPackRoundTrip(t *testing.T) {
	// Unpacking lo+hi bytes with zero gives non-negative halfwords <= 255,
	// so the unsigned-saturating pack must reproduce the original word.
	f := func(a uint64) bool {
		lo := UnpackLB(a, 0)
		hi := UnpackHB(a, 0)
		return PackUSHB(lo, hi) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnpackInterleaving(t *testing.T) {
	a := packB([8]uint8{0, 1, 2, 3, 4, 5, 6, 7})
	b := packB([8]uint8{10, 11, 12, 13, 14, 15, 16, 17})
	if got, want := UnpackLB(a, b), packB([8]uint8{0, 10, 1, 11, 2, 12, 3, 13}); got != want {
		t.Errorf("UnpackLB = %x, want %x", got, want)
	}
	if got, want := UnpackHB(a, b), packB([8]uint8{4, 14, 5, 15, 6, 16, 7, 17}); got != want {
		t.Errorf("UnpackHB = %x, want %x", got, want)
	}
	ah := packH([4]uint16{100, 200, 300, 400})
	bh := packH([4]uint16{500, 600, 700, 800})
	if got, want := UnpackLH(ah, bh), packH([4]uint16{100, 500, 200, 600}); got != want {
		t.Errorf("UnpackLH = %x, want %x", got, want)
	}
	if got, want := UnpackHH(ah, bh), packH([4]uint16{300, 700, 400, 800}); got != want {
		t.Errorf("UnpackHH = %x, want %x", got, want)
	}
}

func TestMAddH(t *testing.T) {
	a := packH([4]uint16{uint16(0xfffd), 2, 100, uint16(0xffce)}) // -3, 2, 100, -50
	b := packH([4]uint16{7, 9, 3, 4})
	got := MAddH(a, b)
	w0 := int32(-3*7 + 2*9)
	w1 := int32(100*3 - 50*4)
	if int32(GetW(got, 0)) != w0 || int32(GetW(got, 1)) != w1 {
		t.Errorf("MAddH = (%d,%d), want (%d,%d)", int32(GetW(got, 0)), int32(GetW(got, 1)), w0, w1)
	}
}

func TestShifts(t *testing.T) {
	x := packH([4]uint16{0x8000, 0x0001, 0x7fff, 0x0100})
	if got := SraH(x, 4); GetH(got, 0) != 0xf800 {
		t.Errorf("SraH sign extension failed: %x", got)
	}
	if got := SrlH(x, 4); GetH(got, 0) != 0x0800 {
		t.Errorf("SrlH logical failed: %x", got)
	}
	if got := SllH(x, 4); GetH(got, 1) != 0x0010 {
		t.Errorf("SllH failed: %x", got)
	}
	if SllH(x, 16) != 0 || SrlH(x, 16) != 0 {
		t.Error("halfword shifts by >= 16 must produce 0 (logical) lanes")
	}
}

func TestSplat(t *testing.T) {
	if SplatB(0xab) != 0xabababababababab {
		t.Error("SplatB failed")
	}
	if SplatH(0x1234) != 0x1234123412341234 {
		t.Error("SplatH failed")
	}
}

func TestSelect(t *testing.T) {
	f := func(a, b, m uint64) bool {
		return Select(a, b, m) == (a&m | b&^m)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// ---- accumulator tests ----

func TestAccLaneIsolation(t *testing.T) {
	// Writing one lane must not disturb its neighbours, across the full
	// 192-bit extent (lanes straddle 64-bit word boundaries).
	for mode, lanes := range map[string]int{"24": 8, "48": 4} {
		for i := 0; i < lanes; i++ {
			var a Acc
			if mode == "24" {
				a.SetLane24(i, -1) // all ones in the lane
				for j := 0; j < lanes; j++ {
					want := int64(0)
					if j == i {
						want = -1
					}
					if got := a.Lane24(j); got != want {
						t.Fatalf("24-bit lane %d after writing lane %d: %d", j, i, got)
					}
				}
			} else {
				a.SetLane48(i, -1)
				for j := 0; j < lanes; j++ {
					want := int64(0)
					if j == i {
						want = -1
					}
					if got := a.Lane48(j); got != want {
						t.Fatalf("48-bit lane %d after writing lane %d: %d", j, i, got)
					}
				}
			}
		}
	}
}

func TestAccWraparound(t *testing.T) {
	var a Acc
	a.SetLane24(3, 1<<23-1) // max positive 24-bit
	a.AddB(setB(0, 3, 1))   // +1 in lane 3
	if got := a.Lane24(3); got != -(1 << 23) {
		t.Errorf("24-bit lane must wrap: got %d", got)
	}
}

func TestAccMulHMatchesDirectSum(t *testing.T) {
	f := func(xs, ys [5]uint64) bool {
		var a Acc
		want := [4]int64{}
		for k := 0; k < 5; k++ {
			a.MulH(xs[k], ys[k])
			for l := 0; l < 4; l++ {
				want[l] += int64(int16(GetH(xs[k], l))) * int64(int16(GetH(ys[k], l)))
			}
		}
		for l := 0; l < 4; l++ {
			if a.Lane48(l) != want[l] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccReadHSaturates(t *testing.T) {
	var a Acc
	a.SetLane48(0, 1<<40) // huge positive
	a.SetLane48(1, -(1 << 40))
	a.SetLane48(2, 123<<16)
	got := a.ReadH(16)
	if int16(GetH(got, 0)) != 32767 {
		t.Errorf("lane 0 should saturate high: %d", int16(GetH(got, 0)))
	}
	if int16(GetH(got, 1)) != -32768 {
		t.Errorf("lane 1 should saturate low: %d", int16(GetH(got, 1)))
	}
	if int16(GetH(got, 2)) != 123 {
		t.Errorf("lane 2 should pass through: %d", int16(GetH(got, 2)))
	}
}

func TestAccSADAccumulation(t *testing.T) {
	// AbsDB over several words must equal the scalar SAD per lane.
	f := func(xs, ys [4]uint64) bool {
		var a Acc
		want := [8]int64{}
		for k := range xs {
			a.AbsDB(xs[k], ys[k])
			for l := 0; l < 8; l++ {
				d := int64(GetB(xs[k], l)) - int64(GetB(ys[k], l))
				if d < 0 {
					d = -d
				}
				want[l] += d
			}
		}
		var sum int64
		for l := 0; l < 8; l++ {
			if a.Lane24(l) != want[l] {
				return false
			}
			sum += want[l]
		}
		return a.SumB() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccClearAndRestore(t *testing.T) {
	var a Acc
	a.MulH(0x7fff7fff7fff7fff, 0x7fff7fff7fff7fff)
	if a.IsZero() {
		t.Fatal("accumulator should be nonzero")
	}
	a.Clear()
	if !a.IsZero() {
		t.Fatal("Clear failed")
	}
	a.WriteH(packH([4]uint16{0xfffb, 7, 0, 9})) // -5, 7, 0, 9
	if a.Lane48(0) != -5 || a.Lane48(1) != 7 || a.Lane48(3) != 9 {
		t.Errorf("WriteH failed: %d %d %d", a.Lane48(0), a.Lane48(1), a.Lane48(3))
	}
}

func TestMPVH(t *testing.T) {
	var a Acc
	x := packH([4]uint16{1, 2, 3, 4})
	a.MPVH(x, 10)
	a.MPVH(x, -1)
	for l := 0; l < 4; l++ {
		want := int64(l+1) * 9
		if a.Lane48(l) != want {
			t.Errorf("lane %d: got %d want %d", l, a.Lane48(l), want)
		}
	}
}
