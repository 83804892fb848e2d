package simd

// Acc is a 192-bit packed accumulator as introduced by MDMX and adopted by
// MOM. The raw bits can be viewed either as 8 lanes of 24 bits (byte mode)
// or 4 lanes of 48 bits (halfword mode); both views share storage exactly as
// in hardware, so mixing modes reinterprets bits rather than losing them.
type Acc struct {
	raw [3]uint64 // little-endian 192 bits
}

// Clear zeroes the accumulator.
func (a *Acc) Clear() { a.raw = [3]uint64{} }

// IsZero reports whether the accumulator is all zero.
func (a *Acc) IsZero() bool { return a.raw == [3]uint64{} }

// getBits extracts w bits starting at bit position pos (w <= 64,
// fields never cross more than one 64-bit boundary for w in {24,48}).
func (a *Acc) getBits(pos, w uint) uint64 {
	idx, off := pos/64, pos%64
	v := a.raw[idx] >> off
	if off+w > 64 {
		v |= a.raw[idx+1] << (64 - off)
	}
	return v & (1<<w - 1)
}

// setBits stores the low w bits of v at bit position pos.
func (a *Acc) setBits(pos, w uint, v uint64) {
	v &= 1<<w - 1
	idx, off := pos/64, pos%64
	mask := (uint64(1)<<w - 1) << off
	a.raw[idx] = a.raw[idx]&^mask | v<<off
	if off+w > 64 {
		rem := off + w - 64
		mask2 := uint64(1)<<rem - 1
		a.raw[idx+1] = a.raw[idx+1]&^mask2 | v>>(64-off)
	}
}

// signExt sign-extends the low w bits of v.
func signExt(v uint64, w uint) int64 {
	sh := 64 - w
	return int64(v<<sh) >> sh
}

// Lane24 returns byte-mode lane i (0..7) sign-extended.
func (a *Acc) Lane24(i int) int64 { return signExt(a.getBits(uint(i)*24, 24), 24) }

// SetLane24 stores v (wrapped to 24 bits) into byte-mode lane i.
func (a *Acc) SetLane24(i int, v int64) { a.setBits(uint(i)*24, 24, uint64(v)) }

// Lane48 returns halfword-mode lane i (0..3) sign-extended.
func (a *Acc) Lane48(i int) int64 { return signExt(a.getBits(uint(i)*48, 48), 48) }

// SetLane48 stores v (wrapped to 48 bits) into halfword-mode lane i.
func (a *Acc) SetLane48(i int, v int64) { a.setBits(uint(i)*48, 48, uint64(v)) }

// ---- Accumulating operations ----

// AddB accumulates the unsigned byte lanes of x into the 8x24 view.
func (a *Acc) AddB(x uint64) {
	for i := 0; i < 8; i++ {
		a.SetLane24(i, a.Lane24(i)+int64(GetB(x, i)))
	}
}

// SubB subtracts the unsigned byte lanes of x from the 8x24 view.
func (a *Acc) SubB(x uint64) {
	for i := 0; i < 8; i++ {
		a.SetLane24(i, a.Lane24(i)-int64(GetB(x, i)))
	}
}

// AddH accumulates the signed halfword lanes of x into the 4x48 view.
func (a *Acc) AddH(x uint64) {
	for i := 0; i < 4; i++ {
		a.SetLane48(i, a.Lane48(i)+int64(int16(GetH(x, i))))
	}
}

// SubH subtracts the signed halfword lanes of x from the 4x48 view.
func (a *Acc) SubH(x uint64) {
	for i := 0; i < 4; i++ {
		a.SetLane48(i, a.Lane48(i)-int64(int16(GetH(x, i))))
	}
}

// MulB accumulates signed byte products into the 8x24 view.
func (a *Acc) MulB(x, y uint64) {
	for i := 0; i < 8; i++ {
		p := int64(int8(GetB(x, i))) * int64(int8(GetB(y, i)))
		a.SetLane24(i, a.Lane24(i)+p)
	}
}

// MulH accumulates signed halfword products into the 4x48 view.
func (a *Acc) MulH(x, y uint64) {
	for i := 0; i < 4; i++ {
		p := int64(int16(GetH(x, i))) * int64(int16(GetH(y, i)))
		a.SetLane48(i, a.Lane48(i)+p)
	}
}

// AbsDB accumulates |x-y| over unsigned byte lanes into the 8x24 view.
func (a *Acc) AbsDB(x, y uint64) {
	for i := 0; i < 8; i++ {
		xv, yv := int64(GetB(x, i)), int64(GetB(y, i))
		d := xv - yv
		if d < 0 {
			d = -d
		}
		a.SetLane24(i, a.Lane24(i)+d)
	}
}

// AbsDH accumulates |x-y| over signed halfword lanes into the 4x48 view.
func (a *Acc) AbsDH(x, y uint64) {
	for i := 0; i < 4; i++ {
		d := int64(int16(GetH(x, i))) - int64(int16(GetH(y, i)))
		if d < 0 {
			d = -d
		}
		a.SetLane48(i, a.Lane48(i)+d)
	}
}

// SqDB accumulates (x-y)^2 over unsigned byte lanes into the 8x24 view.
func (a *Acc) SqDB(x, y uint64) {
	for i := 0; i < 8; i++ {
		d := int64(GetB(x, i)) - int64(GetB(y, i))
		a.SetLane24(i, a.Lane24(i)+d*d)
	}
}

// SqDH accumulates (x-y)^2 over signed halfword lanes into the 4x48 view.
func (a *Acc) SqDH(x, y uint64) {
	for i := 0; i < 4; i++ {
		d := int64(int16(GetH(x, i))) - int64(int16(GetH(y, i)))
		a.SetLane48(i, a.Lane48(i)+d*d)
	}
}

// MPVH implements the matrix-per-vector step: for halfword lane l,
// lane48[l] += coef * s16(x.h[l]). The coefficient is supplied by the caller
// (the emulator selects it from the coefficient register by row index).
func (a *Acc) MPVH(x uint64, coef int64) {
	for l := 0; l < 4; l++ {
		a.SetLane48(l, a.Lane48(l)+coef*int64(int16(GetH(x, l))))
	}
}

// ---- Readback ----

// ReadH shifts each 48-bit lane right arithmetically by sh and packs the four
// results into signed-saturated halfwords (MDMX "round and clip to register").
func (a *Acc) ReadH(sh uint) uint64 {
	var r uint64
	for i := 0; i < 4; i++ {
		v := a.Lane48(i) >> sh
		r |= uint64(uint16(SatS16(v))) << (uint(i) * 16)
	}
	return r
}

// ReadB shifts each 24-bit lane right arithmetically by sh and packs the
// eight results into unsigned-saturated bytes.
func (a *Acc) ReadB(sh uint) uint64 {
	var r uint64
	for i := 0; i < 8; i++ {
		v := a.Lane24(i) >> sh
		if v < 0 {
			v = 0
		}
		if v > 255 {
			v = 255
		}
		r |= uint64(v) << (uint(i) * 8)
	}
	return r
}

// SumB returns the sum of the eight 24-bit lanes (enhanced reduction).
func (a *Acc) SumB() int64 {
	var s int64
	for i := 0; i < 8; i++ {
		s += a.Lane24(i)
	}
	return s
}

// SumH returns the sum of the four 48-bit lanes (enhanced reduction).
func (a *Acc) SumH() int64 {
	var s int64
	for i := 0; i < 4; i++ {
		s += a.Lane48(i)
	}
	return s
}

// WriteH loads the 4x48 view from the sign-extended halfword lanes of x
// (accumulator restore).
func (a *Acc) WriteH(x uint64) {
	a.Clear()
	for i := 0; i < 4; i++ {
		a.SetLane48(i, int64(int16(GetH(x, i))))
	}
}

// WriteB loads the 8x24 view from the zero-extended byte lanes of x.
func (a *Acc) WriteB(x uint64) {
	a.Clear()
	for i := 0; i < 8; i++ {
		a.SetLane24(i, int64(GetB(x, i)))
	}
}
