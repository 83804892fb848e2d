package cpu

import (
	"math/rand"
	"testing"
)

// liveStore is one store a reference window holds.
type liveStore struct {
	lo, hi uint64
	ready  int64
}

// TestLoadDoneMatchesScan checks that storeWindow.loadDone, which skips the
// scan when the window's maxReady bound lies below the memory model's
// answer, returns what a full scan of the live stores returns. A reference
// keeps the last n stores since the last reset, so stores evicted by
// wrap-around drop out of it while their ready cycles stay in the bound.
// Addresses cluster in a small range so loads often overlap stores, and
// store data is often late (ready at or after the load's memDone), which is
// the case that forwards.
func TestLoadDoneMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var scans, skips, forwards int
	for _, n := range []int{1, 2, 5, 16, 32} {
		w := newStoreWindow(n)
		var live []liveStore // at most n, oldest first
		now := int64(1)
		for op := 0; op < 20000; op++ {
			now += rng.Int63n(3)
			lo := uint64(rng.Intn(256))
			hi := lo + uint64(1+rng.Intn(16))
			switch r := rng.Intn(100); {
			case r < 1: // a new run or sampled window
				w.reset()
				live = live[:0]
			case r < 45:
				// Data ready around now, sometimes far later (a store
				// waiting on a long-latency operand).
				ready := now + rng.Int63n(8)
				if rng.Intn(10) == 0 {
					ready += 100 + rng.Int63n(200)
				}
				w.add(lo, hi, ready)
				if live = append(live, liveStore{lo, hi, ready}); len(live) > n {
					live = live[1:]
				}
			default:
				memDone := now + rng.Int63n(12)
				var fwd int64
				for _, s := range live {
					if s.lo < hi && lo < s.hi && s.ready > fwd {
						fwd = s.ready
					}
				}
				want := memDone
				if fwd > 0 && fwd+1 > memDone {
					want = fwd + 1
					forwards++
				}
				if w.maxReady < memDone {
					skips++
				} else {
					scans++
				}
				if got := w.loadDone(lo, hi, memDone); got != want {
					t.Fatalf("n=%d op %d: loadDone([%d,%d), %d) = %d, full scan %d (maxReady %d)",
						n, op, lo, hi, memDone, got, want, w.maxReady)
				}
			}
		}
	}
	// Every path must have been taken, or the test shows nothing.
	if scans == 0 || skips == 0 || forwards == 0 {
		t.Fatalf("scans %d, skips %d, forwards %d: a path went untested", scans, skips, forwards)
	}
}

// TestTryTakeMatchesTake checks that the issue stage's inline probe
// (tryTake, then take only when it fails) hands out the same cycles as take
// alone, over random requests with frontier advances, resets, requests
// behind the frontier and requests far enough ahead to grow the ring.
func TestTryTakeMatchesTake(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var probes, fallbacks, grows int
	for _, width := range []int{1, 2, 4, 8} {
		fast, ref := newWideSlots(width), newWideSlots(width)
		frontier := int64(0)
		for op := 0; op < 50000; op++ {
			switch r := rng.Intn(100); {
			case r < 10:
				frontier += rng.Int63n(4)
				fast.advance(frontier)
				ref.advance(frontier)
			case r < 11:
				frontier += rng.Int63n(5000)
				fast.reset(frontier)
				ref.reset(frontier)
			default:
				earliest := frontier + rng.Int63n(16)
				switch rng.Intn(50) {
				case 0:
					earliest = frontier - 1 - rng.Int63n(8) // clamped to the frontier
				case 1:
					earliest = frontier + 1000 + rng.Int63n(3000) // grows the ring to at most 4096 cells
				}
				n := len(fast.used)
				c := earliest
				if fast.tryTake(c) {
					probes++
				} else {
					c = fast.take(earliest)
					fallbacks++
				}
				if len(fast.used) != n {
					grows++
				}
				if want := ref.take(earliest); c != want {
					t.Fatalf("width %d op %d: request at %d (frontier %d) got cycle %d, take alone %d",
						width, op, earliest, frontier, c, want)
				}
			}
		}
		if fast.base != ref.base || len(fast.used) != len(ref.used) {
			t.Fatalf("width %d: windows diverged: base %d/%d, len %d/%d", width, fast.base, ref.base, len(fast.used), len(ref.used))
		}
		for i := range fast.used {
			if fast.used[i] != ref.used[i] {
				t.Fatalf("width %d: cell %d holds %d, take alone %d", width, i, fast.used[i], ref.used[i])
			}
		}
	}
	if probes == 0 || fallbacks == 0 || grows == 0 {
		t.Fatalf("probes %d, fallbacks %d, grows %d: a path went untested", probes, fallbacks, grows)
	}
}
