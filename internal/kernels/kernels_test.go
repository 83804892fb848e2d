package kernels

import (
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

// TestAllKernelsAllISAsBitExact is the central correctness gate: every
// kernel, in every ISA variant, must reproduce the golden output bit for
// bit after functional execution.
func TestAllKernelsAllISAsBitExact(t *testing.T) {
	for _, k := range All(ScaleTest) {
		for _, ext := range isa.AllExts {
			k, ext := k, ext
			t.Run(k.Name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				if err := RunAndVerify(k, ext, 200_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestKernelProgramsShrinkWithISA: the whole point of the ISA ladder is
// fewer dynamic instructions for the same work. Verify the ordering
// Alpha > MMX >= MDMX > MOM on dynamic instruction counts for the kernels
// where the paper predicts it.
func TestKernelProgramsShrinkWithISA(t *testing.T) {
	counts := func(name string) map[isa.Ext]uint64 {
		k, err := ByName(name, ScaleTest)
		if err != nil {
			t.Fatal(err)
		}
		out := map[isa.Ext]uint64{}
		for _, ext := range isa.AllExts {
			p := k.Build(ext)
			m := emu.New(p)
			steps, err := m.Run(200_000_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, ext, err)
			}
			out[ext] = steps
		}
		return out
	}
	for _, name := range []string{"motion1", "motion2", "idct", "compensation", "addblock", "ltpparameters"} {
		c := counts(name)
		if !(c[isa.ExtAlpha] > c[isa.ExtMMX]) {
			t.Errorf("%s: Alpha (%d) not larger than MMX (%d)", name, c[isa.ExtAlpha], c[isa.ExtMMX])
		}
		if !(c[isa.ExtMMX] >= c[isa.ExtMDMX]) {
			t.Errorf("%s: MMX (%d) smaller than MDMX (%d)", name, c[isa.ExtMMX], c[isa.ExtMDMX])
		}
		if !(c[isa.ExtMDMX] > c[isa.ExtMOM]) {
			t.Errorf("%s: MDMX (%d) not larger than MOM (%d)", name, c[isa.ExtMDMX], c[isa.ExtMOM])
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope", ScaleTest); err == nil {
		t.Fatal("expected error for unknown kernel")
	}
}

// TestAllKernelsBenchScaleBitExact verifies the full-size (figure)
// workloads too; skipped under -short.
func TestAllKernelsBenchScaleBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale verification skipped in -short mode")
	}
	for _, k := range All(ScaleBench) {
		for _, ext := range isa.AllExts {
			k, ext := k, ext
			t.Run(k.Name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				if err := RunAndVerify(k, ext, 500_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
