// Package metric is the repository's one telemetry model: counters,
// labelled counters, duration histograms and gauges read at scrape time,
// each declared once in a Set where it is counted. One writer renders any
// Set in the Prometheus text format, and Snapshot reads the same series
// for command-line output, so a name means one count everywhere.
package metric

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A Set is an ordered list of metric families. Declare every family before
// the Set is read; reads and updates are then safe for concurrent use.
type Set struct {
	fams []family
}

// A family is one series name: its HELP and TYPE lines and the function
// that emits its samples.
type family struct {
	name, help, kind string
	samples          func(emitFunc)
}

// emitFunc takes one sample. Its suffix extends the family name (a
// histogram's _bucket, _sum and _count); labels is the rendered label list.
type emitFunc = func(suffix, labels string, v float64)

func (s *Set) add(name, help, kind string, samples func(emitFunc)) {
	s.fams = append(s.fams, family{name, help, kind, samples})
}

// Counter is a monotonically increasing count.
type Counter struct{ n atomic.Int64 }

// Add adds n to the counter.
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.n.Add(1) }

// Load returns the current count.
func (c *Counter) Load() int64 { return c.n.Load() }

// Counter declares a counter.
func (s *Set) Counter(name, help string) *Counter {
	c := new(Counter)
	s.add(name, help, "counter", func(emit emitFunc) { emit("", "", float64(c.Load())) })
	return c
}

// Seconds declares a counter of elapsed time: it counts nanoseconds (Add a
// time.Duration) and exposes seconds.
func (s *Set) Seconds(name, help string) *Counter {
	c := new(Counter)
	s.add(name, help, "counter", func(emit emitFunc) { emit("", "", time.Duration(c.Load()).Seconds()) })
	return c
}

// Gauge declares a level that read reports at scrape time.
func (s *Set) Gauge(name, help string, read func() int64) {
	s.add(name, help, "gauge", func(emit emitFunc) { emit("", "", float64(read())) })
}

// GaugeVec declares a gauge with one label; read returns the level of each
// label value at scrape time.
func (s *Set) GaugeVec(name, help, label string, read func() map[string]int64) {
	s.add(name, help, "gauge", func(emit emitFunc) {
		m := read()
		for _, v := range sortedKeys(m) {
			emit("", labelPair(label, v), float64(m[v]))
		}
	})
}

// CounterVec is a counter per combination of label values.
type CounterVec struct {
	labels []string
	mu     sync.Mutex
	m      map[string]*Counter // by rendered label list
}

// CounterVec declares a counter with labels. A combination of label values
// is exposed once With has been called for it.
func (s *Set) CounterVec(name, help string, labels ...string) *CounterVec {
	v := &CounterVec{labels: labels, m: map[string]*Counter{}}
	s.add(name, help, "counter", func(emit emitFunc) {
		v.mu.Lock()
		defer v.mu.Unlock()
		for _, l := range sortedKeys(v.m) {
			emit("", l, float64(v.m[l].Load()))
		}
	})
	return v
}

// With returns the counter of one combination of label values, in the
// order the labels were declared.
func (v *CounterVec) With(values ...string) *Counter {
	pairs := make([]string, len(v.labels))
	for i, l := range v.labels {
		pairs[i] = labelPair(l, values[i])
	}
	key := strings.Join(pairs, ",")
	v.mu.Lock()
	defer v.mu.Unlock()
	c := v.m[key]
	if c == nil {
		c = new(Counter)
		v.m[key] = c
	}
	return c
}

// bounds are the histogram bucket upper bounds in seconds: job and stage
// latencies span ~5ms kernel points to minutes-long bench-scale sweeps.
var bounds = []float64{0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 15, 60, 300, 900}

// Histogram is a distribution of durations per value of one label.
type Histogram struct {
	mu sync.Mutex
	m  map[string]*buckets
}

type buckets struct {
	counts []uint64 // one per bound, +Inf last
	sum    float64  // seconds
	total  uint64
}

// Histogram declares a duration histogram with one label.
func (s *Set) Histogram(name, help, label string) *Histogram {
	h := &Histogram{m: map[string]*buckets{}}
	s.add(name, help, "histogram", func(emit emitFunc) {
		h.mu.Lock()
		defer h.mu.Unlock()
		for _, v := range sortedKeys(h.m) {
			b, l := h.m[v], labelPair(label, v)
			var cum uint64
			for i, le := range bounds {
				cum += b.counts[i]
				emit("_bucket", l+","+labelPair("le", strconv.FormatFloat(le, 'g', -1, 64)), float64(cum))
			}
			emit("_bucket", l+`,le="+Inf"`, float64(b.total))
			emit("_sum", l, b.sum)
			emit("_count", l, float64(b.total))
		}
	})
	return h
}

// Observe records one duration under the label value v.
func (h *Histogram) Observe(v string, d time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b := h.m[v]
	if b == nil {
		b = &buckets{counts: make([]uint64, len(bounds)+1)}
		h.m[v] = b
	}
	b.counts[sort.SearchFloat64s(bounds, d.Seconds())]++
	b.sum += d.Seconds()
	b.total++
}

// Totals returns the summed seconds and the count of every observation,
// across label values.
func (h *Histogram) Totals() (seconds float64, count uint64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, b := range h.m {
		seconds += b.sum
		count += b.total
	}
	return seconds, count
}

// WritePrometheus renders every family of the set in the Prometheus text
// exposition format, each name prefixed with prefix.
func (s *Set) WritePrometheus(w io.Writer, prefix string) error {
	bw := bufio.NewWriter(w)
	for _, f := range s.fams {
		name := prefix + f.name
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind)
		f.samples(func(suffix, labels string, v float64) {
			if labels != "" {
				labels = "{" + labels + "}"
			}
			fmt.Fprintf(bw, "%s%s%s %s\n", name, suffix, labels, formatValue(v))
		})
	}
	return bw.Flush()
}

// Sample is the value of one unlabelled series.
type Sample struct {
	Name  string
	Value float64
	Gauge bool // a level at snapshot time rather than a running count
}

// Snapshot is the set's unlabelled counters and gauges at one instant, in
// declaration order.
type Snapshot []Sample

// Snapshot reads the set's unlabelled counters and gauges.
func (s *Set) Snapshot() Snapshot {
	var out Snapshot
	for _, f := range s.fams {
		f.samples(func(suffix, labels string, v float64) {
			if suffix == "" && labels == "" {
				out = append(out, Sample{Name: f.name, Value: v, Gauge: f.kind == "gauge"})
			}
		})
	}
	return out
}

// Since renders the snapshot as name=value pairs: each counter's growth
// since before (a snapshot of the same set, or nil for the totals), each
// gauge's level.
func (s Snapshot) Since(before Snapshot) string {
	var b strings.Builder
	for i, x := range s {
		if !x.Gauge && i < len(before) {
			// Counters resolve to the nanosecond; rounding the difference
			// there drops the float noise of subtracting seconds.
			x.Value = math.Round((x.Value-before[i].Value)*1e9) / 1e9
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(x.Name + "=" + formatValue(x.Value))
	}
	return b.String()
}

// formatValue prints a sample value in full, without an exponent.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'f', -1, 64) }

func labelPair(name, value string) string { return name + "=" + strconv.Quote(value) }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
