package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	mom "repro"
	"repro/internal/cpu"
	"repro/internal/trace"
)

// fig7Sampled runs the 50 Figure 7 points under the default sampling regime
// with two workers, each timed repeat from an empty checkpoint library as a
// fresh sampling process would start.
var fig7Sampled = workload{
	name:    "fig7-sampled",
	setup:   setupSampled,
	measure: measureSampled,
	layers:  layersSampled,
}

// sampledSpec is the workload's regime: mom.DefaultSampleSpec on two
// workers, the host's core count.
func sampledSpec() mom.SampleSpec {
	sp := mom.DefaultSampleSpec
	sp.Parallelism = 2
	return sp
}

func cpuSpec(sp mom.SampleSpec) cpu.SampleSpec {
	return cpu.SampleSpec{Period: sp.Period, Warmup: sp.Warmup, Interval: sp.Interval, Parallelism: sp.Parallelism}
}

func setupSampled(b *bench, parent int) (any, error) {
	us := fig7Units()
	trs, err := b.acquire(us, parent)
	return &unitState{units: us, traces: trs}, err
}

// traceFiles holds every trace of a workload encoded once on disk, so each
// repeat can decode a fresh copy whose checkpoint-library memo is empty
// without the process holding a second, encoded copy of every trace.
type traceFiles struct {
	dir string
	trs map[string]*trace.Trace
}

func (f traceFiles) path(id string) string {
	return filepath.Join(f.dir, strings.ReplaceAll(id, "/", "_")+".trace")
}

// writeTraceFiles encodes every trace to a file under dir.
func writeTraceFiles(dir string, trs map[string]*trace.Trace) (traceFiles, error) {
	f := traceFiles{dir: dir, trs: trs}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return f, err
	}
	for id, tr := range trs {
		out, err := os.Create(f.path(id))
		if err != nil {
			return f, err
		}
		w := bufio.NewWriter(out)
		_, err = tr.WriteTo(w)
		if err == nil {
			err = w.Flush()
		}
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return f, fmt.Errorf("encode %s: %w", id, err)
		}
	}
	return f, nil
}

// fresh decodes a fresh copy of one trace from its file.
func (f traceFiles) fresh(id string) (*trace.Trace, error) {
	in, err := os.Open(f.path(id))
	if err != nil {
		return nil, err
	}
	defer in.Close()
	tr, err := trace.Decode(bufio.NewReader(in), f.trs[id].Program())
	if err != nil {
		return nil, fmt.Errorf("decode %s: %w", id, err)
	}
	return tr, nil
}

// runSampledCPU runs one Figure 7 unit's sampled simulation on the timing
// core directly, replaying tr.
func runSampledCPU(u unit, tr *trace.Trace, sp cpu.SampleSpec) (cpu.Result, error) {
	h, _ := u.hierarchy()
	return cpu.New(cpu.NewConfig(u.Width, u.ext()), h).RunSampled(tr.Reader(), maxInsts, sp)
}

// sampledMom is the first repeat of a fig7-sampled unit: the public entry
// on the captured trace, checked against the golden document, the exact
// cycles and the live-fallback counter. It returns the relative error of
// the cycle estimate in percent.
func (b *bench) sampledMom(u unit, live *liveGuard, rec *recorder, parent int) (opTime, uint64, float64, error) {
	var res mom.Result
	var err error
	t := rec.timedOp("op "+u.ID, parent, func() {
		res, err = mom.RunAppSampled(u.Name, u.ISA, u.Width, u.model(), scale, sampledSpec())
	})
	if err != nil {
		return t, 0, 0, err
	}
	if err := res.CheckInvariants(); err != nil {
		return t, 0, 0, fmt.Errorf("%s: %w", u.ID, err)
	}
	if err := b.gold.checkDoc("fig7-sampled", u.ID, resultDoc(res)); err != nil {
		return t, 0, 0, err
	}
	if err := live.check(u.ID); err != nil {
		return t, 0, 0, err
	}
	exact, err := b.gold.entry("figures-exact", u.ID)
	if err != nil || exact.Cycles == 0 {
		return t, 0, 0, fmt.Errorf("%s: no exact cycles in the golden", u.ID)
	}
	errPct := 100 * math.Abs(float64(res.Sampled.EstCycles-exact.Cycles)) / float64(exact.Cycles)
	return t, res.Sampled.TotalInsts, errPct, nil
}

// sampledFresh is a later repeat: the timing core on a fresh trace copy,
// checked against the golden digest of its result.
func (b *bench) sampledFresh(u unit, tr *trace.Trace, rec *recorder, parent int) (opTime, error) {
	var res cpu.Result
	var err error
	t := rec.timedOp("op "+u.ID, parent, func() { res, err = runSampledCPU(u, tr, cpuSpec(sampledSpec())) })
	if err != nil {
		return t, fmt.Errorf("%s: %w", u.ID, err)
	}
	e, err := b.gold.entry("fig7-sampled", u.ID)
	if err != nil {
		return t, err
	}
	if got := cpuDigest(res); got != e.CPUSHA256 {
		return t, fmt.Errorf("golden mismatch: fig7-sampled %s: timing-core digest %.12s, want %.12s", u.ID, got, e.CPUSHA256)
	}
	return t, nil
}

func measureSampled(b *bench, stAny any, deadline time.Time) error {
	st := stAny.(*unitState)
	files, err := writeTraceFiles(filepath.Join(b.work, "traces"), st.traces)
	if err != nil {
		return err
	}
	insts := map[string]uint64{}
	errPct := map[string]float64{}
	live := newLiveGuard()
	cpuTimes, wall, passes := b.passes(st.units, deadline, func(pass int, u unit) (opTime, error) {
		if pass == 0 {
			t, n, e, err := b.sampledMom(u, live, nil, 0)
			if err == nil {
				insts[u.ID] = n
				errPct[u.ID] = e
			}
			return t, err
		}
		// One fresh copy at a time, so the process holds what a fresh
		// sampling process holds plus a single copy and its library.
		tr, err := files.fresh(u.traceID())
		if err != nil {
			return opTime{}, err
		}
		return b.sampledFresh(u, tr, nil, 0)
	})
	b.setThroughput(cpuTimes, wall, st.units, insts, passes)
	b.setSampledErr(st.units, errPct)
	return b.setPeakRSS()
}

// setSampledErr sets sampled_err_pct, the mean over the Figure 7 units of
// each sampled estimate's error in percent, once every unit has one. It
// sums in the fixed unit order, so every seed reads the same bits.
func (b *bench) setSampledErr(units []unit, errPct map[string]float64) {
	if len(errPct) != len(units) {
		return
	}
	var sum float64
	for _, u := range units {
		sum += errPct[u.ID]
	}
	b.logf("sampled_err_pct: mean over %d units of |est - exact| / exact", len(units))
	b.set("sampled_err_pct", sum/float64(len(units)), "%")
}

func layersSampled(b *bench, stAny any, deadline time.Time) error {
	st := stAny.(*unitState)
	files, err := writeTraceFiles(filepath.Join(b.work, "traces"), st.traces)
	if err != nil {
		return err
	}
	p := newLayerProbe(b, st.traces, sampledSpec(), "fig7-sampled", func(u unit, rec *recorder, parent int) (time.Duration, error) {
		tr, err := files.fresh(u.traceID())
		if err != nil {
			return 0, err
		}
		t, err := b.sampledFresh(u, tr, rec, parent)
		return t.wall, err
	})
	start := time.Now()
	if err := p.run(st.units, start, start.Add(deadline.Sub(start)*probeShare/100)); err != nil {
		return err
	}
	p.report()
	p.closureSampled()
	if err := p.facts(st.units); err != nil {
		return err
	}
	p.checkRest(st.units)
	return b.probeRound(p, st.units)
}
