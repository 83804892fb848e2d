package media

// Golden motion-estimation kernels: dist1 (sum of absolute differences) and
// dist2 (sum of squared differences) over 16x16 blocks, plus the spiral
// full-search of the mpeg2 encoder (Figures 1 and 2 of the paper).

// SAD16 computes the 16x16 sum of absolute differences between a block at
// (ax,ay) in plane a and a block at (bx,by) in plane b.
func SAD16(a *Plane, ax, ay int, b *Plane, bx, by int) int64 {
	var s int64
	for j := 0; j < 16; j++ {
		ra := a.Pix[(ay+j)*a.Stride+ax:]
		rb := b.Pix[(by+j)*b.Stride+bx:]
		for i := 0; i < 16; i++ {
			d := int64(ra[i]) - int64(rb[i])
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}

// SQD16 computes the 16x16 sum of squared differences.
func SQD16(a *Plane, ax, ay int, b *Plane, bx, by int) int64 {
	var s int64
	for j := 0; j < 16; j++ {
		ra := a.Pix[(ay+j)*a.Stride+ax:]
		rb := b.Pix[(by+j)*b.Stride+bx:]
		for i := 0; i < 16; i++ {
			d := int64(ra[i]) - int64(rb[i])
			s += d * d
		}
	}
	return s
}

// SpiralOffsets enumerates the spiral search path of the mpeg2 fullsearch
// function for a window of radius win: for l = 1..win, 8*l candidate
// positions walked counter-clockwise starting at (-l,-l). The centre (0,0)
// is prepended.
func SpiralOffsets(win int) [][2]int {
	offs := [][2]int{{0, 0}}
	for l := 1; l <= win; l++ {
		i, j := -l, -l
		for k := 0; k < 8*l; k++ {
			offs = append(offs, [2]int{i, j})
			switch {
			case k < 2*l:
				i++
			case k < 4*l:
				j++
			case k < 6*l:
				i--
			default:
				j--
			}
		}
	}
	return offs
}
