package apps

import (
	"encoding/binary"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/media"
)

// Shared geometry helpers used by both the golden pipelines and the
// program builders — sharing them guarantees block/candidate ordering
// matches exactly.

// blockOffsets returns the byte offsets of all blk x blk blocks in raster
// order for a plane of width w, height h.
func blockOffsets(w, h, blk int) []int {
	var out []int
	for by := 0; by+blk <= h; by += blk {
		for bx := 0; bx+blk <= w; bx += blk {
			out = append(out, by*w+bx)
		}
	}
	return out
}

// cand is one motion-search candidate: the biased displacement written to
// the bitstream (dx+win, dy+win) and the byte offset delta in the
// reference plane.
type cand struct {
	dxw, dyw int
	delta    int
}

// candidates returns the valid spiral candidates for the macroblock at
// (mbx, mby) in a w x h plane with search radius win.
func candidates(w, h, win, mbx, mby int) []cand {
	var out []cand
	for _, o := range media.SpiralOffsets(win) {
		x, y := mbx+o[0], mby+o[1]
		if x < 0 || y < 0 || x+16 > w || y+16 > h {
			continue
		}
		out = append(out, cand{o[0] + win, o[1] + win, o[1]*w + o[0]})
	}
	return out
}

// sadAt computes the 16x16 SAD between cur at offC and ref at offR (both
// planes width w) — offset arithmetic identical to the generated code.
func sadAt(cur, ref []byte, offC, offR, w int) int64 {
	var s int64
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			d := int64(cur[offC+j*w+i]) - int64(ref[offR+j*w+i])
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}

// bestCandidate runs the golden argmin (strictly-smaller wins, candidate
// order preserved).
func bestCandidate(cur, ref []byte, mbOff, w int, cands []cand) cand {
	best := int64(1) << 62
	var bc cand
	for _, c := range cands {
		s := sadAt(cur, ref, mbOff, mbOff+c.delta, w)
		if s < best {
			best, bc = s, c
		}
	}
	return bc
}

// diffBlock8 computes res = cur - pred over an 8x8 block at off.
func diffBlock8(cur, pred []byte, off, w int, res []int16) {
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			res[8*j+i] = int16(cur[off+j*w+i]) - int16(pred[off+j*w+i])
		}
	}
}

// addBlock8 reconstructs out = sat8(pred + res) over an 8x8 block at off.
func addBlock8(pred []byte, off, w int, res []int16, out []byte) {
	for j := 0; j < 8; j++ {
		for i := 0; i < 8; i++ {
			v := int32(pred[off+j*w+i]) + int32(res[8*j+i])
			if v < 0 {
				v = 0
			}
			if v > 255 {
				v = 255
			}
			out[off+j*w+i] = byte(v)
		}
	}
}

// avgBlock16 is the golden compensation primitive.
func avgBlock16(a []byte, aOff int, b []byte, bOff int, dst []byte, dstOff, w int) {
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			dst[dstOff+j*w+i] = byte((uint16(a[aOff+j*w+i]) + uint16(b[bOff+j*w+i]) + 1) >> 1)
		}
	}
}

// ---- verification helpers ----

func readBytes(m *emu.Machine, addr uint64, n int) []byte {
	b := m.Mem.Bytes(addr, n)
	out := make([]byte, n)
	copy(out, b)
	return out
}

func readU64(m *emu.Machine, addr uint64) uint64 {
	return binary.LittleEndian.Uint64(m.Mem.Bytes(addr, 8))
}

func compareBytes(what string, got, want []byte) error {
	for i := range want {
		if got[i] != want[i] {
			return mismatchErr(what, i, got[i], want[i])
		}
	}
	return nil
}

func mismatchErr(what string, i int, got, want interface{}) error {
	return fmtErrorf("%s: index %d: got %v, want %v", what, i, got, want)
}

// verifyStream checks the emitted bitstream (length word + bytes).
func verifyStream(m *emu.Machine, p *isa.Program, lenSym, bufSym string, want []byte) error {
	gotLen := readU64(m, p.Sym(lenSym))
	if gotLen != uint64(len(want)) {
		return fmtErrorf("%s: stream length %d, want %d", p.Name, gotLen, len(want))
	}
	got := readBytes(m, p.Sym(bufSym), len(want))
	return compareBytes(p.Name+"/stream", got, want)
}

// fmtErrorf is a tiny indirection keeping the fmt import in one place.
func fmtErrorf(format string, args ...interface{}) error {
	return fmt.Errorf(format, args...)
}

// ---- half-pel motion refinement (shared by golden and builders) ----

// Half-pel interpolation modes: the prediction is avg(ref@delta,
// ref@delta+moff). Mode 0 (moff 0) is the integer-pel candidate, since
// avg(x,x) = x; modes 1..4 interpolate right/left/down/up.

// hpMoff returns the byte offset of mode m in a plane of width w.
func hpMoff(m, w int) int {
	switch m {
	case 1:
		return 1
	case 2:
		return -1
	case 3:
		return w
	case 4:
		return -w
	}
	return 0
}

// hpModes returns the interpolation modes that are statically safe for the
// macroblock at (mbx, mby) given the integer search radius win: the
// interpolated partner block must stay inside the plane for every integer
// candidate. Mode 0 is always allowed.
func hpModes(w, h, win, mbx, mby int) []int {
	modes := []int{0}
	if mbx-win-1 >= 0 && mbx+16+win+1 <= w {
		modes = append(modes, 1, 2)
	}
	if mby-win-1 >= 0 && mby+16+win+1 <= h {
		modes = append(modes, 3, 4)
	}
	return modes
}

// sadAvgAt is the golden interpolated block distance:
// sum |cur - (refA+refB+1)>>1|.
func sadAvgAt(cur, ref []byte, offC, offA, offB, w int) int64 {
	var s int64
	for j := 0; j < 16; j++ {
		for i := 0; i < 16; i++ {
			p := (int64(ref[offA+j*w+i]) + int64(ref[offB+j*w+i]) + 1) >> 1
			d := int64(cur[offC+j*w+i]) - p
			if d < 0 {
				d = -d
			}
			s += d
		}
	}
	return s
}
