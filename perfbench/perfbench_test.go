package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, n, err := percentile(xs, 0.95)
	if err != nil || n != 200 || v != 190 {
		t.Fatalf("p95 of 1..200 = %v, %d, %v; want 190, 200, nil", v, n, err)
	}
	if _, _, err := percentile(xs[:199], 0.95); err == nil {
		t.Fatal("p95 of 199 samples leaves 9 beyond it; want a refusal")
	}
	if v, _, err := percentile(xs[:21], 0.5); err != nil || v != 11 {
		t.Fatalf("p50 of 1..21 = %v, %v; want 11", v, err)
	}
	if _, _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples leaves 9 beyond it; want a refusal")
	}
	if _, _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("percentile of no samples; want an error")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestFastestKeepsMinimumAndRepeatCount(t *testing.T) {
	f := newFastest()
	f.add("a", 3*time.Millisecond)
	f.add("a", 1*time.Millisecond)
	f.add("a", 2*time.Millisecond)
	f.add("b", 5*time.Millisecond)
	total, reps := f.sum([]string{"a", "b"})
	if total != 6*time.Millisecond || reps != 1 {
		t.Fatalf("sum = %v over >= %d repeats; want 6ms over >= 1", total, reps)
	}
	if _, reps := f.sum([]string{"a", "missing"}); reps != 0 {
		t.Fatalf("a key never measured must report 0 repeats, got %d", reps)
	}
	if got := f.valuesMS([]string{"b", "a"}); !reflect.DeepEqual(got, []float64{5, 1}) {
		t.Fatalf("valuesMS = %v, want [5 1]", got)
	}
}

func TestRepeatsSumMedians(t *testing.T) {
	r := repeats{}
	for _, d := range []time.Duration{9, 1, 2} {
		r.add("a", d*time.Millisecond)
	}
	r.add("b", 4*time.Millisecond)
	r.add("b", 6*time.Millisecond)
	total, reps := r.sumMedians([]string{"a", "b"})
	if total != 7*time.Millisecond || reps != 2 {
		t.Fatalf("sumMedians = %v over >= %d repeats; want 7ms over >= 2", total, reps)
	}
	if _, reps := r.sumMedians([]string{"a", "missing"}); reps != 0 {
		t.Fatalf("a key never measured must report 0 repeats, got %d", reps)
	}
}

func TestSeedDeterminesOrderAndSchedule(t *testing.T) {
	units := append(fig5Units(), fig7Units()...)
	order := func(seed int64) []string {
		rng := rand.New(rand.NewSource(seed))
		var ids []string
		for pass := 0; pass < 2; pass++ {
			for _, u := range permuted(rng, units) {
				ids = append(ids, u.ID)
			}
		}
		return ids
	}
	sched := func(seed int64) [][]svcOp {
		return serviceSchedule(rand.New(rand.NewSource(seed)), len(servicePoints()), svcClients)
	}
	if !reflect.DeepEqual(order(7), order(7)) || !reflect.DeepEqual(sched(7), sched(7)) {
		t.Fatal("the same seed gave a different unit order or job schedule")
	}
	if reflect.DeepEqual(order(7), order(8)) || reflect.DeepEqual(sched(7), sched(8)) {
		t.Fatal("different seeds gave the same unit order or job schedule")
	}
}

func TestScheduleHitsFollowTheirCompute(t *testing.T) {
	const points = 256
	computed := map[int]int{}
	hits := map[int]int{}
	for _, ops := range serviceSchedule(rand.New(rand.NewSource(1)), points, svcClients) {
		mine := map[int]bool{}
		for _, o := range ops {
			if o.Hit {
				if !mine[o.Point] {
					t.Fatalf("point %d re-submitted before this client computed it", o.Point)
				}
				hits[o.Point]++
				continue
			}
			mine[o.Point] = true
			computed[o.Point]++
		}
	}
	for p := 0; p < points; p++ {
		if computed[p] != 1 || hits[p] < 2 || hits[p] > 4 {
			t.Fatalf("point %d: computed %d times, re-submitted %d; want 1 and 2-4", p, computed[p], hits[p])
		}
	}
}

func TestGoldenFailsOnPerturbedCycles(t *testing.T) {
	g, err := loadGolden("golden.json")
	if err != nil {
		t.Fatal(err)
	}
	u := fig5Units()[len(fig5Units())-1] // a MOM kernel at 8-way: a short run
	res, err := runExact(u)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.checkExact("figures-exact", u, res); err != nil {
		t.Fatalf("committed golden rejects an unchanged run: %v", err)
	}
	e := g["figures-exact"][u.ID]
	e.Cycles++
	g["figures-exact"][u.ID] = e
	if err := g.checkExact("figures-exact", u, res); err == nil || !strings.Contains(err.Error(), "golden mismatch") {
		t.Fatalf("golden with one cycle added: got %v, want a golden mismatch", err)
	}
	// A result whose cycles moved, with its profile kept consistent, fails
	// on the document digest alone.
	e.Cycles = 0
	g["figures-exact"][u.ID] = e
	moved := res
	moved.Cycles++
	moved.Profile.Commit++
	if err := g.checkExact("figures-exact", u, moved); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("result with one cycle added: got %v, want a digest mismatch", err)
	}
}

func TestMovedListsChangedUnits(t *testing.T) {
	old := golden{"w": {"a": {SHA256: "1"}, "b": {SHA256: "2"}}}
	cur := golden{"w": {"a": {SHA256: "1"}, "b": {SHA256: "3"}, "c": {SHA256: "4"}}}
	if got, want := moved(old, cur), []string{"w b", "w c"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("moved = %v, want %v", got, want)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "unit", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "drain a", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "run", Start: 5 * ms, End: 9 * ms},
		{ID: 4, Name: "drain b", Start: 20 * ms, End: 22 * ms},
	}
	got := selfTimes(spans)
	if got["unit"] != 3*ms || got["drain"] != 5*ms || got["run"] != 4*ms {
		t.Fatalf("self times = %v", got)
	}
}
