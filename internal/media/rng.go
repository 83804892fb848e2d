// Package media provides the substrate the workloads are built from:
// deterministic synthetic media content (video frames, images, speech-like
// PCM) standing in for the Mediabench inputs, and golden fixed-point
// implementations of every kernel and codec stage (DCT/IDCT, quantisation,
// colour conversion, motion estimation/compensation, GSM long-term
// prediction, upsampling, bit-level entropy coding). The golden routines
// define the bit-exact semantics the ISA-level programs must reproduce.
package media

// RNG is a deterministic SplitMix64 generator; all synthetic content is
// derived from seeds so every experiment is reproducible.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Next returns the next 64-bit value.
func (r *RNG) Next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.Next() % uint64(n))
}

// I16 returns a uniform int16 in [-lim, lim].
func (r *RNG) I16(lim int) int16 {
	if lim <= 0 {
		return 0
	}
	return int16(r.Intn(2*lim+1) - lim)
}
