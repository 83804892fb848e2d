package main

import "time"

// hostRefSink keeps the reference loop's result live.
var hostRefSink uint64

// hostRef times a fixed ILP-heavy loop: four independent multiply/xor-shift
// chains the core can overlap. Such code slows in the host's slow mode,
// while dependent-latency and memory-bound loops do not, so its time tells a
// slow-host run from a program regression. It takes about a millisecond.
func hostRef() time.Duration {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 200_000; i++ {
		a = a*6364136223846793005 + 1442695040888963407
		b ^= b << 13
		b ^= b >> 7
		c = c*2862933555777941757 + 3037000493
		d += a ^ c
		d ^= d >> 11
	}
	hostRefSink += a ^ b ^ c ^ d
	return time.Since(t0)
}
