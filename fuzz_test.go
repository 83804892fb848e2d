package mom

import (
	"encoding/json"
	"os"
	"testing"
)

// Native fuzz targets for the request front ends: the job service's
// JobRequest and the sweep engine's SweepSpec both reach Normalized with
// untrusted JSON. Run one with
//
//	go test -run '^$' -fuzz '^FuzzNormalize$' -fuzztime 20s .

// FuzzNormalize: decoding any JSON into a JobRequest and normalising it
// never panics, and an accepted request normalises to a fixed point with
// the same key that carries only the fields its catalogue entry consumes.
func FuzzNormalize(f *testing.F) {
	// Seeds: the requests of request_test.go.
	for _, r := range []JobRequest{
		{Exp: "fig5", Width: 8, ISA: "mmx", Mem: "vector", Kernel: "idct"},
		{Exp: "kernel", Kernel: "motion1", ISA: "mom"},
		{Exp: "nope"},
		{Exp: "fig5", Scale: "huge"},
		{Exp: "latency", Width: 3},
		{Exp: "latency", Width: -4},
		{Exp: "kernel", Kernel: "idct", Width: -1},
		{Exp: "kernel"},
		{Exp: "kernel", Kernel: "nope"},
		{Exp: "kernel", Kernel: "idct", ISA: "sse"},
		{Exp: "kernel", Kernel: "idct", Mem: "l3"},
		{Exp: "app", App: "nope"},
		{Exp: "memsweep"},
		{Exp: "regsweep", Kernel: "bogus"},
		{Exp: "fig5", SamplePeriod: 1501, SampleWarmup: 100, SampleInterval: 150},
		{Exp: "fetch", SampleInterval: 150, SamplePeriod: 1501},
		{Exp: "latency", SampleInterval: 150, SamplePeriod: 1501},
		{Exp: "regsweep", Kernel: "idct", SampleInterval: 150, SamplePeriod: 1501},
		{Exp: "memsweep", App: "mpeg2decode", SampleInterval: 150, SamplePeriod: 1501},
		{Exp: "kernel", Kernel: "idct", SampleInterval: 150},
		{Exp: "fig5", ISA: "MDMX"},
		{Exp: "fig7"},
		{Exp: "kernel", Kernel: "rgb2ycc", ISA: "MOM", Width: 4},
		{Exp: "app", App: "mpeg2decode", ISA: "MOM", Width: 8, Mem: "multi",
			SamplePeriod: 1501, SampleWarmup: 100, SampleInterval: 150, SamplePar: 4},
	} {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r JobRequest
		if json.Unmarshal(data, &r) != nil {
			return
		}
		n, err := r.Normalized()
		if err != nil {
			return
		}
		if again, err := n.Normalized(); err != nil || again != n {
			t.Fatalf("%+v: normalising twice gives %+v (%v), want %+v", r, again, err, n)
		}
		kr, errR := r.Key()
		kn, errN := n.Key()
		if errR != nil || errN != nil || kr != kn {
			t.Fatalf("%+v: key %s (%v), normalised key %s (%v)", r, kr, errR, kn, errN)
		}
		e, _ := lookupExp(n.Exp)
		want := JobRequest{Exp: n.Exp, Scale: n.Scale}
		if e.width {
			want.Width = n.Width
		}
		if e.isa {
			want.ISA = n.ISA
		}
		if e.mem {
			want.Mem = n.Mem
		}
		if e.kernel {
			want.Kernel = n.Kernel
		}
		if e.app {
			want.App = n.App
		}
		if e.sample {
			want.SamplePeriod, want.SampleWarmup, want.SampleInterval = n.SamplePeriod, n.SampleWarmup, n.SampleInterval
		}
		if n != want {
			t.Fatalf("%+v: normalised to %+v, which keeps fields %q does not consume", r, n, n.Exp)
		}
	})
}

// maxFuzzGrid bounds the grid FuzzSweepExpand expands: a 1 KiB spec can
// still repeat axis values into billions of points, and each point costs
// tens of microseconds.
const maxFuzzGrid = 1 << 10

// FuzzSweepExpand: parsing and expanding any small spec never panics, and
// an accepted spec expands to normalised requests with unique keys.
func FuzzSweepExpand(f *testing.F) {
	// Seeds: the specs of sweepspec_test.go and the committed example.
	for _, s := range []SweepSpec{
		{Exps: []string{"kernel", "fig5"}, Kernels: []string{"motion1", "idct"}, ISAs: []string{"MMX", "MOM"},
			Widths: []int{2, 4}, Mems: []string{"perfect", "perfect50"}, Samples: []string{"", "1501:100:150"}},
		{Exps: []string{"fig5"}, Widths: []int{1, 2, 4, 8}},
		{Exps: []string{"kernel"}, Kernels: []string{"motion1"}, ISAs: []string{"mom", "MOM", "Mom"}, Widths: []int{4}},
		{},
		{Exps: []string{"bogus"}},
		{Exps: []string{"kernel"}, Kernels: []string{"nope"}},
		{Exps: []string{"kernel"}, ISAs: []string{"sse"}},
		{Exps: []string{"kernel"}, Widths: []int{3}},
		{Exps: []string{"kernel"}, Samples: []string{"bad"}},
		{Exps: []string{"app"}, Scales: []string{"huge"}},
	} {
		b, err := json.Marshal(s)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Add([]byte(`{"exps":["fig5"],"widhts":[4]}`))
	example, err := os.ReadFile("examples/sweeps/motion-width.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<10 {
			t.Skip("spec over 1 KiB")
		}
		s, err := ParseSweepSpec(data)
		if err != nil {
			return
		}
		// An upper bound on the grid: the product of every axis, whatever
		// each experiment consumes.
		d := s.withDefaults()
		grid := len(d.Exps)
		for _, n := range []int{len(d.Scales), len(d.Widths), len(d.ISAs), len(d.Mems), len(d.Kernels), len(d.Apps), len(d.Samples)} {
			if grid *= n; grid > maxFuzzGrid {
				t.Skip("grid too large")
			}
		}
		reqs, err := s.Expand()
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, r := range reqs {
			if n, err := r.Normalized(); err != nil || n != r {
				t.Fatalf("expanded request %+v is not normalised: %+v (%v)", r, n, err)
			}
			key, err := r.Key()
			if err != nil {
				t.Fatal(err)
			}
			if seen[key] {
				t.Fatalf("duplicate key %s for %+v", key, r)
			}
			seen[key] = true
		}
	})
}
