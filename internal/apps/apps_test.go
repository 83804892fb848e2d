package apps

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/isa"
)

// TestAllAppsAllISAsBitExact: every application, in every ISA variant,
// must reproduce the golden pipeline outputs (bitstreams, reconstructed
// planes) bit for bit.
func TestAllAppsAllISAsBitExact(t *testing.T) {
	for _, a := range All(ScaleTest) {
		for _, ext := range isa.AllExts {
			a, ext := a, ext
			t.Run(a.Name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				if err := RunAndVerify(a, ext, 500_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestAppInstructionCounts: the multimedia ISAs must reduce dynamic
// instruction counts, MOM the most.
func TestAppInstructionCounts(t *testing.T) {
	for _, a := range All(ScaleTest) {
		counts := map[isa.Ext]uint64{}
		for _, ext := range isa.AllExts {
			p := a.Build(ext)
			m := emu.New(p)
			steps, err := m.Run(500_000_000)
			if err != nil {
				t.Fatalf("%s/%s: %v", a.Name, ext, err)
			}
			counts[ext] = steps
		}
		if !(counts[isa.ExtAlpha] > counts[isa.ExtMMX]) {
			t.Errorf("%s: Alpha %d not > MMX %d", a.Name, counts[isa.ExtAlpha], counts[isa.ExtMMX])
		}
		if !(counts[isa.ExtMMX] > counts[isa.ExtMOM]) {
			t.Errorf("%s: MMX %d not > MOM %d", a.Name, counts[isa.ExtMMX], counts[isa.ExtMOM])
		}
	}
}

// TestMPEG2AcrossSeedsAndSizes fuzzes the most complex application over
// several contents and geometries; every ISA must stay bit-exact.
func TestMPEG2AcrossSeedsAndSizes(t *testing.T) {
	cfgs := []mpegCfg{
		{w: 48, h: 32, win: 2, scale: 100, seed: 7},
		{w: 48, h: 32, win: 2, scale: 60, seed: 8},   // finer quantisation
		{w: 64, h: 48, win: 3, scale: 140, seed: 9},  // bigger frame, wider search
		{w: 32, h: 32, win: 1, scale: 100, seed: 10}, // tiny frame, narrow search
	}
	for _, c := range cfgs {
		for _, app := range []App{newMPEG2Encode(c), newMPEG2Decode(c)} {
			for _, ext := range isa.AllExts {
				c, app, ext := c, app, ext
				t.Run(fmt.Sprintf("%s/%dx%d-win%d-q%d-s%d/%s",
					app.Name, c.w, c.h, c.win, c.scale, c.seed, ext), func(t *testing.T) {
					t.Parallel()
					if err := RunAndVerify(app, ext, 500_000_000); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}
}

// TestJPEGAndGSMAcrossSeeds varies content and parameters for the remaining
// applications.
func TestJPEGAndGSMAcrossSeeds(t *testing.T) {
	var appsList []App
	for _, c := range []jpegCfg{
		{w: 32, h: 32, scale: 100, seed: 21},
		{w: 48, h: 32, scale: 70, seed: 22},
		{w: 32, h: 48, scale: 150, seed: 23},
	} {
		appsList = append(appsList, newJPEGEncode(c), newJPEGDecode(c))
	}
	for _, c := range []gsmCfg{
		{nFrames: 2, seed: 31},
		{nFrames: 5, seed: 32},
	} {
		appsList = append(appsList, newGSMEncode(c))
	}
	for ai, app := range appsList {
		for _, ext := range isa.AllExts {
			app, ext, ai := app, ext, ai
			t.Run(fmt.Sprintf("%s-%d/%s", app.Name, ai, ext), func(t *testing.T) {
				t.Parallel()
				if err := RunAndVerify(app, ext, 500_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// psnr computes the peak signal-to-noise ratio (dB) between two
// equally-sized 8-bit planes.
func psnr(a, b []byte) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return 0
	}
	var se float64
	for i := range a {
		d := float64(int(a[i]) - int(b[i]))
		se += d * d
	}
	if se == 0 {
		return math.Inf(1)
	}
	mse := se / float64(len(a))
	return 10 * math.Log10(255*255/mse)
}

// TestCodecQuality: the reconstructed outputs must be visually faithful to
// the originals (the paper verified "no visually perceptible losses"),
// measured as PSNR.
func TestCodecQuality(t *testing.T) {
	mc := mpegCfgFor(ScaleTest)
	g := mpegEncodeGolden(mc)
	for i := 0; i < 3; i++ {
		if p := psnr(g.frames[i], g.recon[i]); p < 30 {
			t.Errorf("mpeg2 frame %d PSNR %.1f dB < 30", i, p)
		}
	}
	jc := jpegCfgFor(ScaleTest)
	jg := jpegGoldenRun(jc)
	if p := psnr(jg.y, jg.yRec); p < 30 {
		t.Errorf("jpeg luma PSNR %.1f dB < 30", p)
	}
	if p := psnr(jg.r, jg.rRec); p < 24 {
		t.Errorf("jpeg red-channel PSNR %.1f dB < 24 (chroma subsampled)", p)
	}
}

// TestAllAppsBenchScaleBitExact verifies the full-size applications;
// skipped under -short.
func TestAllAppsBenchScaleBitExact(t *testing.T) {
	if testing.Short() {
		t.Skip("bench-scale verification skipped in -short mode")
	}
	for _, a := range All(ScaleBench) {
		for _, ext := range isa.AllExts {
			a, ext := a, ext
			t.Run(a.Name+"/"+ext.String(), func(t *testing.T) {
				t.Parallel()
				if err := RunAndVerify(a, ext, 1_000_000_000); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
