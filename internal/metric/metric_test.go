package metric

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestWritePrometheus pins the text exposition of every kind of family.
func TestWritePrometheus(t *testing.T) {
	var s Set
	c := s.Counter("hits_total", "Lookups served.")
	sec := s.Seconds("busy_seconds_total", "Time spent busy.")
	s.Gauge("entries", "Entries held.", func() int64 { return 7 })
	s.GaugeVec("jobs", "Jobs by state.", "state", func() map[string]int64 {
		return map[string]int64{"running": 2, "done": 0}
	})
	v := s.CounterVec("submitted_total", "Submissions.", "exp", "mode")
	h := s.Histogram("wait_seconds", "Waits.", "stage")
	c.Add(3)
	sec.Add(int64(1500 * time.Millisecond))
	v.With("fig7", "sampled").Inc()
	v.With("fig5", "exact").Add(2)
	h.Observe("queue", 30*time.Millisecond)
	h.Observe("queue", 2*time.Hour)

	var b strings.Builder
	if err := s.WritePrometheus(&b, "x_"); err != nil {
		t.Fatal(err)
	}
	want := `# HELP x_hits_total Lookups served.
# TYPE x_hits_total counter
x_hits_total 3
# HELP x_busy_seconds_total Time spent busy.
# TYPE x_busy_seconds_total counter
x_busy_seconds_total 1.5
# HELP x_entries Entries held.
# TYPE x_entries gauge
x_entries 7
# HELP x_jobs Jobs by state.
# TYPE x_jobs gauge
x_jobs{state="done"} 0
x_jobs{state="running"} 2
# HELP x_submitted_total Submissions.
# TYPE x_submitted_total counter
x_submitted_total{exp="fig5",mode="exact"} 2
x_submitted_total{exp="fig7",mode="sampled"} 1
# HELP x_wait_seconds Waits.
# TYPE x_wait_seconds histogram
x_wait_seconds_bucket{stage="queue",le="0.005"} 0
x_wait_seconds_bucket{stage="queue",le="0.02"} 0
x_wait_seconds_bucket{stage="queue",le="0.05"} 1
x_wait_seconds_bucket{stage="queue",le="0.1"} 1
x_wait_seconds_bucket{stage="queue",le="0.25"} 1
x_wait_seconds_bucket{stage="queue",le="0.5"} 1
x_wait_seconds_bucket{stage="queue",le="1"} 1
x_wait_seconds_bucket{stage="queue",le="2.5"} 1
x_wait_seconds_bucket{stage="queue",le="5"} 1
x_wait_seconds_bucket{stage="queue",le="15"} 1
x_wait_seconds_bucket{stage="queue",le="60"} 1
x_wait_seconds_bucket{stage="queue",le="300"} 1
x_wait_seconds_bucket{stage="queue",le="900"} 1
x_wait_seconds_bucket{stage="queue",le="+Inf"} 2
x_wait_seconds_sum{stage="queue"} 7200.03
x_wait_seconds_count{stage="queue"} 2
`
	if got := b.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
	if sum, n := h.Totals(); n != 2 || sum != 7200.03 {
		t.Fatalf("Totals = %g, %d; want 7200.03, 2", sum, n)
	}
}

// TestSnapshotSince: a snapshot holds the unlabelled series in declaration
// order; Since prints counters as growth and gauges as levels.
func TestSnapshotSince(t *testing.T) {
	var s Set
	c := s.Counter("runs_total", "Runs.")
	sec := s.Seconds("run_seconds_total", "Run time.")
	level := int64(4)
	s.Gauge("held", "Held.", func() int64 { return level })
	s.CounterVec("by_exp_total", "Labelled, so not in a snapshot.", "exp").With("fig5").Inc()
	c.Add(10)
	sec.Add(int64(300 * time.Millisecond))
	before := s.Snapshot()
	c.Add(2)
	sec.Add(int64(700 * time.Millisecond))
	level = 9
	after := s.Snapshot()
	if len(after) != 3 || after[0].Name != "runs_total" || after[2].Name != "held" || !after[2].Gauge {
		t.Fatalf("snapshot %+v", after)
	}
	if got, want := after.Since(before), "runs_total=2 run_seconds_total=0.7 held=9"; got != want {
		t.Fatalf("Since = %q, want %q", got, want)
	}
	if got, want := after.Since(nil), "runs_total=12 run_seconds_total=1 held=9"; got != want {
		t.Fatalf("Since(nil) = %q, want %q", got, want)
	}
}

// TestConcurrentUse updates every kind of series from several goroutines
// while others render and snapshot the set (run it under -race).
func TestConcurrentUse(t *testing.T) {
	var s Set
	c := s.Counter("n_total", "N.")
	v := s.CounterVec("by_total", "By label.", "k")
	h := s.Histogram("d_seconds", "D.", "k")
	s.Gauge("g", "G.", func() int64 { return c.Load() })
	const workers, each = 4, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				v.With([]string{"a", "b"}[i%2]).Inc()
				h.Observe([]string{"a", "b"}[i%2], time.Millisecond)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if err := s.WritePrometheus(io.Discard, ""); err != nil {
					t.Error(err)
				}
				s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != workers*each {
		t.Fatalf("counter %d, want %d", got, workers*each)
	}
	if got := v.With("a").Load() + v.With("b").Load(); got != workers*each {
		t.Fatalf("labelled counters sum to %d, want %d", got, workers*each)
	}
	if _, n := h.Totals(); n != workers*each {
		t.Fatalf("histogram counted %d, want %d", n, workers*each)
	}
}
