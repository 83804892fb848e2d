package mom

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
)

// TestEveryWorkloadVerifies re-checks bit-exactness through the public API.
func TestEveryWorkloadVerifies(t *testing.T) {
	for _, k := range KernelNames() {
		for _, i := range AllISAs {
			k, i := k, i
			t.Run("kernel/"+k+"/"+i.String(), func(t *testing.T) {
				t.Parallel()
				if err := VerifyKernel(k, i, ScaleTest); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
	for _, a := range AppNames() {
		for _, i := range AllISAs {
			a, i := a, i
			t.Run("app/"+a+"/"+i.String(), func(t *testing.T) {
				t.Parallel()
				if err := VerifyApp(a, i, ScaleTest); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestFigure5Shape checks the qualitative claims of the kernel study.
func TestFigure5Shape(t *testing.T) {
	rows, err := Figure5(context.Background(), ScaleTest)
	if err != nil {
		t.Fatal(err)
	}
	get := func(k string, i ISA, w int) float64 {
		for _, r := range rows {
			if r.Kernel == k && r.ISA == i && r.Width == w {
				return r.Speedup
			}
		}
		t.Fatalf("missing row %s/%s/%d", k, i, w)
		return 0
	}
	for _, k := range KernelNames() {
		// Multimedia extensions beat scalar code everywhere.
		for _, w := range Widths {
			if get(k, MMX, w) <= get(k, Alpha, w) {
				t.Errorf("%s %d-way: MMX (%.2f) not faster than Alpha (%.2f)",
					k, w, get(k, MMX, w), get(k, Alpha, w))
			}
		}
		// MOM is at least competitive with MDMX at every width and strictly
		// better at 1-way (the fetch-pressure argument).
		if get(k, MOM, 1) <= get(k, MDMX, 1)*1.02 {
			t.Errorf("%s 1-way: MOM (%.2f) not clearly ahead of MDMX (%.2f)",
				k, get(k, MOM, 1), get(k, MDMX, 1))
		}
	}
	// MOM's relative advantage over MDMX shrinks as issue width grows for
	// the motion kernel (the embedded-domain argument).
	rel1 := get("motion1", MOM, 1) / get("motion1", MDMX, 1)
	rel4 := get("motion1", MOM, 4) / get("motion1", MDMX, 4)
	if rel1 <= rel4 {
		t.Errorf("motion1: MOM/MDMX advantage should shrink with width: 1-way %.2f, 4-way %.2f", rel1, rel4)
	}
	// rgb2ycc is MOM's weak kernel (tiny vector length).
	weak := get("rgb2ycc", MOM, 4) / get("rgb2ycc", MDMX, 4)
	strong := get("motion2", MOM, 4) / get("motion2", MDMX, 4)
	if weak > strong*1.5 {
		t.Errorf("rgb2ycc should be MOM's weak kernel: rgb ratio %.2f vs motion2 %.2f", weak, strong)
	}
}

// TestLatencyToleranceShape checks the Section 4.1 claim: MOM tolerates
// memory latency better than the packed ISAs and scalar code on the
// streaming kernels.
func TestLatencyToleranceShape(t *testing.T) {
	rows, err := LatencyStudy(context.Background(), ScaleTest, 4)
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string]float64{}
	for _, r := range rows {
		slow[r.Kernel+"/"+r.ISA.String()] = r.Slowdown
	}
	// On the memory-streaming kernels MOM must degrade least.
	for _, k := range []string{"motion1", "motion2", "compensation", "addblock", "h2v2upsample"} {
		if slow[k+"/MOM"] >= slow[k+"/MMX"] {
			t.Errorf("%s: MOM slowdown %.2f not below MMX %.2f", k, slow[k+"/MOM"], slow[k+"/MMX"])
		}
		if slow[k+"/MOM"] >= slow[k+"/Alpha"] {
			t.Errorf("%s: MOM slowdown %.2f not below Alpha %.2f", k, slow[k+"/MOM"], slow[k+"/Alpha"])
		}
	}
}

// TestFigure7Shape checks the program-level claims.
func TestFigure7Shape(t *testing.T) {
	rows, err := Figure7(context.Background(), ScaleTest, SampleSpec{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(a string, cfg AppConfig, w int) float64 {
		for _, r := range rows {
			if r.App == a && r.Config == cfg && r.Width == w {
				return r.Speedup
			}
		}
		t.Fatalf("missing %s %v %d", a, cfg, w)
		return 0
	}
	var mmxSum, momSum float64
	for _, a := range AppNames() {
		for _, w := range []int{4, 8} {
			mmx := get(a, AppConfig{MMX, Conventional}, w)
			momMA := get(a, AppConfig{MOM, MultiAddress}, w)
			if mmx <= 1.0 {
				t.Errorf("%s %d-way: MMX speedup %.2f not above 1", a, w, mmx)
			}
			if momMA <= mmx {
				t.Errorf("%s %d-way: MOM (%.2f) not above MMX (%.2f)", a, w, momMA, mmx)
			}
			if w == 4 {
				mmxSum += mmx
				momSum += momMA
			}
		}
	}
	// Average MOM gain over MMX across applications (paper: ~20%).
	gain := momSum/mmxSum - 1
	if gain < 0.05 || gain > 0.60 {
		t.Errorf("mean MOM-over-MMX application gain %.1f%% outside the plausible band", 100*gain)
	}
	// mpeg2encode: the vector/collapsing caches lose the most vs
	// multi-address (large strides defeat line-pair gathering).
	encLoss := get("mpeg2encode", AppConfig{MOM, MultiAddress}, 8) /
		get("mpeg2encode", AppConfig{MOM, VectorCache}, 8)
	gsmLoss := get("gsmencode", AppConfig{MOM, MultiAddress}, 8) /
		get("gsmencode", AppConfig{MOM, VectorCache}, 8)
	if encLoss < gsmLoss {
		t.Errorf("vector cache should hurt mpeg2encode (loss %.3f) more than gsmencode (loss %.3f)",
			encLoss, gsmLoss)
	}
}

// TestTable2Shape checks the area-model reproduction.
func TestTable2Shape(t *testing.T) {
	rows := Table2()
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	if rows[0].NormalizedArea != 1.0 {
		t.Errorf("MMX area must normalise to 1.0, got %f", rows[0].NormalizedArea)
	}
	if a := rows[1].NormalizedArea; a < 1.1 || a > 1.3 {
		t.Errorf("MDMX area %f outside the paper's ~1.19 band", a)
	}
	if a := rows[2].NormalizedArea; a < 0.75 || a > 1.0 {
		t.Errorf("MOM area %f outside the paper's ~0.87 band", a)
	}
	// MOM's file is ~5x larger in raw bits yet cheaper in area.
	if rows[2].SizeBytes < 4*rows[0].SizeBytes {
		t.Errorf("MOM file %dB should be about 5x MMX %dB", rows[2].SizeBytes, rows[0].SizeBytes)
	}
}

// TestISACounts: the modelled instruction counts should be in the
// neighbourhood of the paper's library sizes (67 / 88 / 121).
func TestISACounts(t *testing.T) {
	mmx, mdmx, momN := ISACounts()
	if !(mmx < mdmx && mdmx < momN) {
		t.Errorf("counts must grow: %d %d %d", mmx, mdmx, momN)
	}
	if mmx < 45 || mmx > 90 {
		t.Errorf("MMX count %d far from the paper's 67", mmx)
	}
	if momN < 100 || momN > 160 {
		t.Errorf("MOM count %d far from the paper's 121", momN)
	}
}

// TestFormatters exercises the table renderers.
func TestFormatters(t *testing.T) {
	if s := FormatTable1(Table1(MOM)); !strings.Contains(s, "8-way") {
		t.Error("Table 1 output missing 8-way column")
	}
	if s := FormatTable2(Table2()); !strings.Contains(s, "Normalized area") {
		t.Error("Table 2 output missing area row")
	}
	if s := FormatTable3(Table3()); !strings.Contains(s, "vector-cache") {
		t.Error("Table 3 output missing vector cache row")
	}
}

// TestRunKernelErrors covers the error paths of the public API.
func TestRunKernelErrors(t *testing.T) {
	if _, err := RunKernel("nope", MOM, 4, PerfectMemory(1), ScaleTest); err == nil {
		t.Error("expected error for unknown kernel")
	}
	if _, err := RunApp("nope", MOM, 4, PerfectMemory(1), ScaleTest); err == nil {
		t.Error("expected error for unknown app")
	}
}

// TestUnsupportedWidthErrors: every public entry point that times one
// workload, and the sampled per-PC path behind HotspotStudy, rejects a
// width the machine tables do not define with an error (the one check
// Normalized uses), instead of panicking in cpu.NewConfig or
// mem.NewHierarchy.
func TestUnsupportedWidthErrors(t *testing.T) {
	sp := DefaultSampleSpec
	var sink bytes.Buffer
	opt := PipelineOptions{Konata: &sink}
	detailed := DetailedMemory(MultiAddress)
	for _, tc := range []struct {
		name string
		run  func(width int, m MemModel) error
	}{
		{"RunKernel", func(w int, m MemModel) error { _, err := RunKernel("idct", MOM, w, m, ScaleTest); return err }},
		{"RunApp", func(w int, m MemModel) error { _, err := RunApp("gsmencode", MOM, w, m, ScaleTest); return err }},
		{"RunKernelSampled", func(w int, m MemModel) error {
			_, err := RunKernelSampled("idct", MOM, w, m, ScaleTest, sp)
			return err
		}},
		{"RunAppSampled", func(w int, m MemModel) error {
			_, err := RunAppSampled("gsmencode", MOM, w, m, ScaleTest, sp)
			return err
		}},
		{"KernelHotspots", func(w int, m MemModel) error {
			_, err := KernelHotspots("idct", MOM, w, m, ScaleTest)
			return err
		}},
		{"AppHotspots", func(w int, m MemModel) error {
			_, err := AppHotspots("gsmencode", MOM, w, m, ScaleTest)
			return err
		}},
		{"hotspotReport (sampled)", func(w int, m MemModel) error {
			_, err := hotspotReport(traceKey{app: true, name: "gsmencode", isa: MOM, scale: ScaleTest}, w, m, sp)
			return err
		}},
		{"ExportKernelPipeline", func(w int, m MemModel) error {
			_, err := ExportKernelPipeline("idct", MOM, w, m, ScaleTest, opt)
			return err
		}},
		{"ExportAppPipeline", func(w int, m MemModel) error {
			_, err := ExportAppPipeline("gsmencode", MOM, w, m, ScaleTest, opt)
			return err
		}},
	} {
		for _, w := range []int{0, 3, -4, 16} {
			err := tc.run(w, PerfectMemory(1))
			if want := fmt.Sprintf("invalid width %d (valid: 1, 2, 4, 8)", w); err == nil || err.Error() != want {
				t.Errorf("%s at width %d: error %v, want %q", tc.name, w, err, want)
			}
		}
		// The detailed hierarchies of Table 3 exist at 4- and 8-way only.
		if err := tc.run(2, detailed); err == nil || !strings.Contains(err.Error(), "valid: 4, 8") {
			t.Errorf("%s at width 2 on %s memory: error %v, want the 4/8-way bound", tc.name, detailed.Name(), err)
		}
	}
}

// TestRegisterSweepSaturates: the ablation behind Table 2's file size —
// performance must saturate at (or before) the paper's 20 physical matrix
// registers and degrade below it.
func TestRegisterSweepSaturates(t *testing.T) {
	rows, err := RegisterSweep(context.Background(), ScaleTest, "idct")
	if err != nil {
		t.Fatal(err)
	}
	byRegs := map[int]float64{}
	for _, r := range rows {
		byRegs[r.MomPhys] = r.Slowdown
	}
	if byRegs[17] < 1.2 {
		t.Errorf("17 physical registers should clearly hurt: %.3fx", byRegs[17])
	}
	if byRegs[20] > 1.05 {
		t.Errorf("20 physical registers should be within 5%% of saturation: %.3fx", byRegs[20])
	}
}

// TestCSVExports exercises the machine-readable outputs.
func TestCSVExports(t *testing.T) {
	rows := []KernelSpeedup{{Kernel: "motion1", ISA: MOM, Width: 4, Cycles: 100, IPC: 1.5, Speedup: 7}}
	var sb strings.Builder
	if err := WriteFigure5CSV(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "motion1,MOM,4,100,1.5000,7.0000") {
		t.Errorf("unexpected CSV: %q", sb.String())
	}
	sb.Reset()
	if err := WriteLatencyCSV(&sb, []LatencyRow{{Kernel: "idct", ISA: MMX, Width: 4, Cycles1: 10, Cycles50: 30, Slowdown: 3}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "idct,MMX,4,10,30,3.0000") {
		t.Errorf("unexpected CSV: %q", sb.String())
	}
	sb.Reset()
	if err := WriteFigure7CSV(&sb, []AppSpeedup{{App: "gsmencode", Config: AppConfig{MOM, VectorCache}, Width: 8, Cycles: 5, IPC: 1, Speedup: 2}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "gsmencode,MOM,vector-cache,8,5,1.0000,2.0000") {
		t.Errorf("unexpected CSV: %q", sb.String())
	}
}
