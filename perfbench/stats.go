package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a percentile must have strictly above its
// rank before it is reported: a p95 over 60 samples rests on three points
// and moves with every outlier.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by the nearest-rank
// rule, with the sample count. It refuses a quantile with fewer than
// minBeyond samples beyond it.
func percentile(xs []float64, q float64) (float64, int, error) {
	n := len(xs)
	if n == 0 {
		return 0, 0, fmt.Errorf("percentile p%g: no samples", q*100)
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if beyond := n - 1 - rank; beyond < minBeyond {
		return 0, n, fmt.Errorf("percentile p%g: %d samples leave %d beyond it, need %d",
			q*100, n, beyond, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank], n, nil
}

// median is the middle value (mean of the two middle values for even n).
// Unlike percentile it is used for repeat statistics, where a handful of
// samples is the point.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// midmean is the mean of the values between the first and third quartiles
// (the interquartile mean). It resists outliers like a median, but keeps
// the resolution of a mean, so a statistic of integer-microsecond spans
// does not read the same whole number run after run.
func midmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	var sum float64
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// fastest keeps the fastest repeat of every key, with the repeat count.
// Host speed on small shared machines switches between a fast and a ~1.6x
// slower mode every second or two; repeats spaced apart in time make it
// likely that at least one of them lands in the fast mode, so the minimum
// of spaced repeats is a steady estimate of a key's wall time. The
// per-layer timings use it. The end-to-end timings use the median CPU
// time of the repeats instead (repeats), which also leaves out the time
// the hypervisor gives to other guests.
type fastest struct {
	best map[string]time.Duration
	reps map[string]int
	keys []string // first-seen order
}

func newFastest() *fastest {
	return &fastest{best: map[string]time.Duration{}, reps: map[string]int{}}
}

func (f *fastest) add(key string, d time.Duration) {
	if old, ok := f.best[key]; !ok {
		f.keys = append(f.keys, key)
		f.best[key] = d
	} else if d < old {
		f.best[key] = d
	}
	f.reps[key]++
}

// sum is the total of the per-key fastest times over keys, with the fewest
// repeats any of those keys received. A key never measured makes the sum
// incomplete, reported as minReps == 0.
func (f *fastest) sum(keys []string) (total time.Duration, minReps int) {
	minReps = -1
	for _, k := range keys {
		total += f.best[k]
		if r := f.reps[k]; minReps < 0 || r < minReps {
			minReps = r
		}
	}
	if minReps < 0 {
		minReps = 0
	}
	return total, minReps
}

// repeats keeps every repeat of every key, for a median.
type repeats map[string][]time.Duration

func (r repeats) add(key string, d time.Duration) { r[key] = append(r[key], d) }

// sumMedians is the total of the per-key median repeats over keys, with
// the fewest repeats any of those keys received. A key never measured
// makes the sum incomplete, reported as minReps == 0.
func (r repeats) sumMedians(keys []string) (total time.Duration, minReps int) {
	minReps = -1
	for _, k := range keys {
		xs := make([]float64, len(r[k]))
		for i, d := range r[k] {
			xs[i] = float64(d)
		}
		total += time.Duration(median(xs))
		if minReps < 0 || len(xs) < minReps {
			minReps = len(xs)
		}
	}
	if minReps < 0 {
		minReps = 0
	}
	return total, minReps
}

// values returns the per-key fastest times of keys, in milliseconds.
func (f *fastest) valuesMS(keys []string) []float64 {
	out := make([]float64, 0, len(keys))
	for _, k := range keys {
		if d, ok := f.best[k]; ok {
			out = append(out, ms(d))
		}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
