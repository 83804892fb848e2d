package media

// Golden implementation of the jpeg h2v2 upsampler kernel.

// H2V2Upsample doubles a plane in both dimensions with the triangular
// (3x+y+rounding)/4 filter used by the jpeg "fancy" upsampler. Only the
// interior rows/columns get the full filter; borders replicate, which is
// also what the kernels implement.
//
// Horizontal:  out[2i] = (3*in[i] + in[i-1] + 2) >> 2
//
//	out[2i+1] = (3*in[i] + in[i+1] + 1) >> 2
//
// applied after the same filter vertically.
func H2V2Upsample(in *Plane) *Plane {
	w, h := in.W, in.H
	// Vertical pass: 2h rows, each blending a row with its neighbour.
	tmp := make([][]int16, 2*h)
	for j := 0; j < h; j++ {
		up, down := j-1, j+1
		if up < 0 {
			up = 0
		}
		if down >= h {
			down = h - 1
		}
		r0 := make([]int16, w)
		r1 := make([]int16, w)
		for i := 0; i < w; i++ {
			c := int16(in.At(i, j))
			r0[i] = (3*c + int16(in.At(i, up)) + 2) >> 2
			r1[i] = (3*c + int16(in.At(i, down)) + 1) >> 2
		}
		tmp[2*j] = r0
		tmp[2*j+1] = r1
	}
	out := NewPlane(2*w, 2*h)
	for j := 0; j < 2*h; j++ {
		row := tmp[j]
		for i := 0; i < w; i++ {
			left, right := i-1, i+1
			if left < 0 {
				left = 0
			}
			if right >= w {
				right = w - 1
			}
			c := row[i]
			out.Set(2*i, j, byte((3*c+row[left]+2)>>2))
			out.Set(2*i+1, j, byte((3*c+row[right]+1)>>2))
		}
	}
	return out
}
