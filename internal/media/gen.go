package media

import "math"

// Plane is an 8-bit image plane with an explicit row stride, mirroring the
// layout the kernels see in simulated memory.
type Plane struct {
	W, H   int
	Stride int
	Pix    []byte
}

// NewPlane allocates a plane with Stride == W.
func NewPlane(w, h int) *Plane {
	return &Plane{W: w, H: h, Stride: w, Pix: make([]byte, w*h)}
}

// At returns the pixel at (x, y).
func (p *Plane) At(x, y int) byte { return p.Pix[y*p.Stride+x] }

// Set stores a pixel at (x, y).
func (p *Plane) Set(x, y int, v byte) { p.Pix[y*p.Stride+x] = v }

// GenFrame synthesises a video frame: a smooth gradient background, a set of
// textured moving objects (so motion estimation has real work to do), and a
// sprinkle of sensor-like noise. t is the frame time; objects translate with
// t, which gives consecutive frames genuine displaced content.
func GenFrame(w, h, t int, seed uint64) *Plane {
	p := NewPlane(w, h)
	rng := NewRNG(seed)
	// Background gradient with gentle sinusoidal texture.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			v := 64 + (x*48)/max(w, 1) + (y*32)/max(h, 1)
			v += int(12 * math.Sin(float64(x)/9.0) * math.Cos(float64(y)/11.0))
			p.Set(x, y, clamp8(v))
		}
	}
	// Moving textured rectangles.
	nObj := 4
	for o := 0; o < nObj; o++ {
		ow := min(12+rng.Intn(20), w)
		oh := min(12+rng.Intn(20), h)
		baseX := rng.Intn(max(w-ow, 1))
		baseY := rng.Intn(max(h-oh, 1))
		dx := rng.Intn(7) - 3
		dy := rng.Intn(5) - 2
		ox := mod(baseX+dx*t, max(w-ow, 1))
		oy := mod(baseY+dy*t, max(h-oh, 1))
		tone := 30 + rng.Intn(180)
		txSeed := rng.Next()
		tx := NewRNG(txSeed)
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				v := tone + int(tx.Next()%23) - 11
				p.Set(ox+x, oy+y, clamp8(v))
			}
		}
	}
	// Light noise.
	for i := 0; i < w*h/16; i++ {
		idx := rng.Intn(w * h)
		p.Pix[idx] = clamp8(int(p.Pix[idx]) + rng.Intn(9) - 4)
	}
	return p
}

// GenRGB synthesises three planar colour planes of a photographic-looking
// test image (gradients + blobs + noise), one byte per sample.
func GenRGB(w, h int, seed uint64) (r, g, b *Plane) {
	r, g, b = NewPlane(w, h), NewPlane(w, h), NewPlane(w, h)
	rng := NewRNG(seed)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			fr := 100 + (x*120)/max(w, 1)
			fg := 80 + (y*130)/max(h, 1)
			fb := 60 + ((x+y)*90)/max(w+h, 1)
			fr += int(20 * math.Sin(float64(x)/13))
			fg += int(15 * math.Cos(float64(y)/7))
			r.Set(x, y, clamp8(fr+rng.Intn(7)-3))
			g.Set(x, y, clamp8(fg+rng.Intn(7)-3))
			b.Set(x, y, clamp8(fb+rng.Intn(7)-3))
		}
	}
	return
}

// GenPCM synthesises n samples of voiced-speech-like 13-bit PCM: a few
// harmonics with a slowly wandering pitch plus noise. GSM long-term
// prediction finds genuine periodicity in this signal.
func GenPCM(n int, seed uint64) []int16 {
	rng := NewRNG(seed)
	out := make([]int16, n)
	pitch := 55.0 + float64(rng.Intn(40))
	phase := 0.0
	for i := 0; i < n; i++ {
		pitch += (float64(rng.Intn(9)) - 4) * 0.01
		phase += 2 * math.Pi / pitch
		v := 1200*math.Sin(phase) + 500*math.Sin(2*phase+0.5) + 280*math.Sin(3*phase+1.1)
		v += float64(rng.Intn(121) - 60)
		if v > 4095 {
			v = 4095
		}
		if v < -4096 {
			v = -4096
		}
		out[i] = int16(v)
	}
	return out
}

func clamp8(v int) byte {
	if v < 0 {
		return 0
	}
	if v > 255 {
		return 255
	}
	return byte(v)
}

func mod(a, m int) int {
	if m <= 0 {
		return 0
	}
	a %= m
	if a < 0 {
		a += m
	}
	return a
}

// PSNR computes the peak signal-to-noise ratio (dB) between two
// equally-sized 8-bit planes — the quality metric backing the paper's
// "no visually perceptible losses in accuracy" verification.
func PSNR(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var se float64
	for i := range a {
		d := float64(int(a[i]) - int(b[i]))
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(len(a))
	return 10 * math.Log10(255*255/mse)
}
