package main

import (
	"fmt"
	"runtime"
	"time"

	mom "repro"
	"repro/internal/trace"
)

// figuresExact runs every Figure 5 point and every exact Figure 7 point, one
// at a time, through the per-point entry points Figure5 and Figure7 fan
// out over.
var figuresExact = workload{
	name:    "figures-exact",
	setup:   setupExact,
	measure: measureExact,
	layers:  layersExact,
}

// unitState is what set-up leaves for the timed phase: the units and the
// traces they replay, held in the program's trace cache.
type unitState struct {
	units  []unit
	traces map[string]*trace.Trace
}

func setupExact(b *bench, parent int) (any, error) {
	us := append(fig5Units(), fig7Units()...)
	trs, err := b.acquire(us, parent)
	return &unitState{units: us, traces: trs}, err
}

// acquire captures, cold, every trace the units replay through the
// program's trace cache.
func (b *bench) acquire(us []unit, parent int) (map[string]*trace.Trace, error) {
	trs := map[string]*trace.Trace{}
	for _, u := range traceSet(us) {
		var tr *trace.Trace
		b.rec.timed("mom.CaptureWorkloadTrace "+u.traceID(), parent, func(int) {
			tr = mom.CaptureWorkloadTrace(u.App, u.Name, u.ISA, scale)
		})
		if tr == nil {
			return nil, fmt.Errorf("no trace for %s", u.traceID())
		}
		trs[u.traceID()] = tr
	}
	return trs, nil
}

// runExact is one figures-exact operation: the per-point entry point with
// a disabled sample spec.
func runExact(u unit) (mom.Result, error) {
	if u.App {
		return mom.RunAppSampled(u.Name, u.ISA, u.Width, u.model(), scale, mom.SampleSpec{})
	}
	return mom.RunKernelSampled(u.Name, u.ISA, u.Width, u.model(), scale, mom.SampleSpec{})
}

// liveGuard turns a replay that silently fell back to live emulation into
// a failed operation.
type liveGuard struct{ runs int64 }

func newLiveGuard() *liveGuard { return &liveGuard{runs: mom.ReadTraceStats().LiveRuns} }

func (g *liveGuard) check(id string) error {
	n := mom.ReadTraceStats().LiveRuns
	if n == g.runs {
		return nil
	}
	err := fmt.Errorf("%s: %d live-emulation fallbacks", id, n-g.runs)
	g.runs = n
	return err
}

// exactUnit times one exact unit and checks it against the golden
// workload gold.
func (b *bench) exactUnit(gold string, u unit, live *liveGuard, rec *recorder, parent int) (opTime, mom.Result, error) {
	var res mom.Result
	var err error
	t := rec.timedOp("op "+u.ID, parent, func() { res, err = runExact(u) })
	if err == nil {
		err = b.gold.checkExact(gold, u, res)
	}
	if err == nil {
		err = live.check(u.ID)
	}
	return t, res, err
}

func measureExact(b *bench, stAny any, deadline time.Time) error {
	st := stAny.(*unitState)
	insts := map[string]uint64{}
	live := newLiveGuard()
	cpuTimes, wall, passes := b.passes(st.units, deadline, func(_ int, u unit) (opTime, error) {
		t, res, err := b.exactUnit("figures-exact", u, live, nil, 0)
		if err == nil {
			insts[u.ID] = res.Insts
		}
		return t, err
	})
	b.setThroughput(cpuTimes, wall, st.units, insts, passes)
	if err := b.setPeakRSS(); err != nil {
		return err
	}
	// sampled_err_pct is taken untimed after the peak: the sampled runs
	// memoise checkpoint libraries on the cached traces, which the exact
	// passes never hold.
	errPct := map[string]float64{}
	for _, u := range st.units {
		if !u.App {
			continue
		}
		_, _, e, err := b.sampledMom(u, live, nil, 0)
		b.op(err)
		if err == nil {
			errPct[u.ID] = e
		}
	}
	b.setSampledErr(fig7Units(), errPct)
	return nil
}

// passes times op on every unit once per pass, each pass in a new seeded
// order, until the deadline; the first pass always completes. The
// collector runs untimed before every unit, which keeps the collection of
// earlier units' garbage out of the timed call, and the peak resident set
// from depending on when the collector happened to run. It returns every
// unit's repeats in process CPU time, each unit's fastest wall time, and
// the number of passes begun.
func (b *bench) passes(units []unit, deadline time.Time, op func(pass int, u unit) (opTime, error)) (repeats, *fastest, int) {
	cpu, wall := repeats{}, newFastest()
	var sums []float64
	pass := 0
	for ; pass == 0 || time.Now().Before(deadline); pass++ {
		var sum time.Duration
		for i, u := range permuted(b.rng, units) {
			if pass > 0 && !time.Now().Before(deadline) {
				break
			}
			runtime.GC()
			t, err := op(pass, u)
			b.op(err)
			if err == nil {
				cpu.add(u.ID, t.cpu)
				wall.add(u.ID, t.wall)
			}
			sum += t.cpu
			if i == len(units)-1 {
				sums = append(sums, sum.Seconds())
			}
			b.runHostRef()
		}
	}
	b.logf("complete passes took %s s of unit CPU time", fmtList(sums, "%.3f"))
	return cpu, wall, pass
}

// setThroughput sets sim_minst_per_s: instructions covered over the sum of
// each unit's median CPU time. It also prints the rate over each unit's
// fastest wall time, to read beside host.ref_ms.
func (b *bench) setThroughput(cpu repeats, wall *fastest, units []unit, insts map[string]uint64, passes int) {
	var ids []string
	var n uint64
	for _, u := range units {
		ids = append(ids, u.ID)
		n += insts[u.ID]
	}
	minst := float64(n) / 1e6
	total, reps := cpu.sumMedians(ids)
	fast, _ := wall.sum(ids)
	b.logf("sim_minst_per_s: %d units, median CPU time of >= %d repeats each (%d passes), %.0f Minst in %.3f s",
		len(ids), reps, passes, minst, total.Seconds())
	b.logf("  over the fastest wall times instead: %.3f s, %.4g Minst/s (diagnostic, not a metric)",
		fast.Seconds(), minst/fast.Seconds())
	if total > 0 {
		b.set("sim_minst_per_s", minst/total.Seconds(), "Minst/s")
	}
}

func layersExact(b *bench, stAny any, deadline time.Time) error {
	st := stAny.(*unitState)
	live := newLiveGuard()
	p := newLayerProbe(b, st.traces, mom.SampleSpec{}, "figures-exact", func(u unit, rec *recorder, parent int) (time.Duration, error) {
		t, _, err := b.exactUnit("figures-exact", u, live, rec, parent)
		return t.wall, err
	})
	start := time.Now()
	if err := p.run(st.units, start, start.Add(deadline.Sub(start)*probeShare/100)); err != nil {
		return err
	}
	p.report()
	p.closureExact()
	if err := p.facts(st.units); err != nil {
		return err
	}
	p.checkRest(st.units)
	return b.probeRound(p, st.units)
}

// probeShare is the percentage of a traced figure run's time the layer
// probe gets; the rest checks the uncovered units and runs the probe round.
const probeShare = 65

// probeRoundPoints is how many of a workload's units its traced run also
// submits as jobs, so the store and server layers are measured on every
// workload: enough for a median with ten samples beyond it.
const probeRoundPoints = 24

// probeRound runs one traced service round over a seeded sample of the
// workload's units with the workload's spec.
func (b *bench) probeRound(p *layerProbe, units []unit) error {
	pts := permuted(b.rng, units)[:min(probeRoundPoints, len(units))]
	env := &svcEnv{points: pts, sp: p.sp, gold: p.gold}
	r, err := b.serviceRound(env, serviceSchedule(b.rng, len(pts), svcClients), b.rec, true)
	if err != nil {
		return err
	}
	return b.serveMetrics(env, []*svcRound{r})
}
