package main

import (
	"fmt"
	"sort"
	"time"

	mom "repro"
	"repro/internal/serve"
)

// per is a total over a count, or 0 when nothing was counted.
func per(total float64, n float64) float64 {
	if n == 0 {
		return 0
	}
	return total / n
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return per(s, float64(len(xs)))
}

// total sums the fastest repeats of one layer over ids.
func (p *layerProbe) total(layer string, ids []string) time.Duration {
	keys := make([]string, len(ids))
	for i, id := range ids {
		keys[i] = layer + "|" + id
	}
	d, _ := p.f.sum(keys)
	return d
}

// minReps is the fewest repeats any covered unit's calls received.
func (p *layerProbe) minReps() int {
	var ids []string
	for _, u := range p.covered {
		ids = append(ids, "e2e|"+u.ID)
	}
	_, r := p.f.sum(ids)
	return r
}

// report sets the per-layer metrics the probe measured.
func (p *layerProbe) report() {
	b := p.b
	var unitIDs, traceIDs, unitTraces []string
	var unitRecs, traceRecs float64
	for _, u := range p.covered {
		unitIDs = append(unitIDs, u.ID)
		unitTraces = append(unitTraces, u.traceID())
		unitRecs += float64(p.trs[u.traceID()].Records())
	}
	for _, u := range traceSet(p.covered) {
		traceIDs = append(traceIDs, u.traceID())
		traceRecs += float64(p.trs[u.traceID()].Records())
	}
	b.logf("layers: %d units on %d traces covered, fastest of >= %d repeats each", len(unitIDs), len(traceIDs), p.minReps())

	var kb, ab []string
	for _, k := range p.f.keys {
		switch {
		case len(k) > 7 && k[:7] == "kbuild|":
			kb = append(kb, k[7:])
		case len(k) > 7 && k[:7] == "abuild|":
			ab = append(ab, k[7:])
		}
	}
	b.set("kernels.build_ms", ms(p.total("kbuild", kb)), "ms")
	b.set("apps.build_ms", ms(p.total("abuild", ab)), "ms")

	nsPer := func(d time.Duration, n float64) float64 { return per(float64(d), n) }
	b.set("emu.ns_per_inst", nsPer(p.total("emu", traceIDs), traceRecs), "ns")
	b.set("trace.capture_ns_per_rec", nsPer(p.total("capture", traceIDs), traceRecs), "ns")
	b.set("trace.encode_ns_per_rec", nsPer(p.total("encode", traceIDs), traceRecs), "ns")
	b.set("trace.next_ns_per_rec", nsPer(p.total("next", traceIDs), traceRecs), "ns")
	b.set("trace.warm_ns_per_rec", nsPer(p.total("warm", traceIDs), traceRecs), "ns")

	next := p.total("next", unitTraces)
	perfect := p.total("perfect", unitIDs)
	b.set("cpu.perfect_ns_per_rec", nsPer(perfect, unitRecs), "ns")
	b.set("cpu.core_self_ns_per_rec", nsPer(perfect-next, unitRecs), "ns")
	b.set("cpu.hier_ns_per_rec", nsPer(p.total("hier", unitIDs), unitRecs), "ns")
	fresh, memo := p.total("fresh", unitIDs), p.total("memo", unitIDs)
	b.set("cpu.sweep_ns_per_rec", nsPer(fresh-memo, unitRecs), "ns")
	b.set("cpu.blocks_ns_per_rec", nsPer(memo, unitRecs), "ns")
	b.set("cpu.serial_sampled_ns_per_rec", nsPer(p.total("serial", unitIDs), unitRecs), "ns")

	for _, m := range []string{"conv", "multi", "vector", "collapsing"} {
		var ids []string
		var n float64
		for _, u := range p.covered {
			for _, rm := range replayModes(u) {
				if rm == m {
					ids = append(ids, u.ID)
					n += float64(p.accesses[u.ID])
				}
			}
		}
		b.set("mem."+m+".ns_per_access", nsPer(p.total("mem."+m, ids), n), "ns")
	}
	var touches float64
	for _, u := range p.covered {
		touches += float64(p.touches[u.ID])
	}
	b.set("mem.warm_ns_per_touch", nsPer(p.total("touch", unitIDs), touches), "ns")

	// Overheads are medians over units of per-unit differences between
	// fastest repeats: one slow-mode repeat skews a mean of differences
	// of large numbers.
	var runOver, jobOver, keyUS []float64
	for _, id := range unitIDs {
		momT, cpuT, jobT := p.f.best["mom|"+id], p.f.best["cpueq|"+id], p.f.best["job|"+id]
		runOver = append(runOver, us(momT-cpuT))
		jobOver = append(jobOver, us(jobT-momT))
		keyUS = append(keyUS, us(p.f.best["key|"+id]))
	}
	b.set("mom.run_overhead_us", median(runOver), "us")
	b.set("mom.request_key_us", median(keyUS), "us")
	b.set("mom.job_overhead_us", median(jobOver), "us")
	ts := mom.ReadTraceStats()
	b.set("mom.capture_s", ts.CaptureTime.Seconds(), "s")
	b.set("mom.captures", float64(ts.Captures), "count")
	b.set("mom.live_runs", float64(ts.LiveRuns), "count")
	b.set("mom.disk_writes", float64(ts.DiskWrites), "count")
}

// closureLayer is one layer's self time in a workload's closure.
type closureLayer struct {
	name string
	self time.Duration
	how  string
}

// printClosure reports each layer's self time as a share of the untraced
// end-to-end time of the same units, the unattributed remainder, and the
// tracing overhead (omitted when traced is negative).
func (b *bench) printClosure(what string, e2e, traced time.Duration, layers []closureLayer) {
	b.logf("closure %s: untraced end-to-end %.3f ms", what, ms(e2e))
	var sum time.Duration
	for _, l := range layers {
		sum += l.self
		b.logf("  %-26s %10.3f ms %6.1f%%  %s", l.name, ms(l.self), 100*per(float64(l.self), float64(e2e)), l.how)
	}
	rest := e2e - sum
	b.logf("  %-26s %10.3f ms %6.1f%%", "unattributed", ms(rest), 100*per(float64(rest), float64(e2e)))
	if traced >= 0 {
		b.logf("  tracing overhead: traced %.3f ms - untraced %.3f ms = %.3f ms (%.2f%%)",
			ms(traced), ms(e2e), ms(traced-e2e), 100*per(float64(traced-e2e), float64(e2e)))
	}
}

// closureExact splits exact unit replays into the trace decoder, the core,
// the memory model (its call stream replayed alone) and the mom entry point.
func (p *layerProbe) closureExact() {
	var ids, trs []string
	for _, u := range p.covered {
		ids = append(ids, u.ID)
		trs = append(trs, u.traceID())
	}
	next, perfect := p.total("next", trs), p.total("perfect", ids)
	p.b.printClosure(p.b.workload, p.total("e2e", ids), p.total("e2e.traced", ids), []closureLayer{
		{"trace (Reader.Next)", next, "drain alone"},
		{"cpu core", perfect - next, "Run on perfect(1) - drain"},
		{"mem model", p.total("memown", ids), "unit's call stream replayed alone"},
		{"mom entry point", p.total("mom", ids) - p.total("cpueq", ids), "mom call - Sim.Run"},
	})
}

// closureSampled splits fresh sampled runs into the fast-forward decoder,
// the warming touches, the rest of the checkpoint sweep, the window blocks
// and the mom entry point.
func (p *layerProbe) closureSampled() {
	var ids, trs []string
	for _, u := range p.covered {
		ids = append(ids, u.ID)
		trs = append(trs, u.traceID())
	}
	warm, touch := p.total("warm", trs), p.total("touch", ids)
	fresh, memo := p.total("fresh", ids), p.total("memo", ids)
	p.b.printClosure(p.b.workload, p.total("e2e", ids), p.total("e2e.traced", ids), []closureLayer{
		{"trace (Reader.WarmNext)", warm, "drain alone"},
		{"mem warming", touch, "touch stream replayed alone"},
		{"cpu sweep, rest", fresh - memo - warm - touch, "fresh - memoised - the two above"},
		{"cpu blocks", memo, "memoised run"},
		{"mom entry point", p.total("mom", ids) - p.total("cpueq", ids), "mom call - Sim.RunSampled"},
	})
}

// serveMetrics sets the store and server layer metrics from traced rounds.
func (b *bench) serveMetrics(env *svcEnv, rounds []*svcRound) error {
	hitRT, hitSpan := newFastest(), newFastest()
	keyOf := map[string]string{}
	for _, p := range env.points {
		k, err := p.request(env.sp).Key()
		if err != nil {
			return err
		}
		keyOf[p.ID] = k
	}
	var queue, execute, storeMS, poll, getUS, putUS []float64
	var refused int
	var hits, lookups, bytes, docs float64
	for _, r := range rounds {
		for _, res := range r.results {
			id := env.points[res.op.Point].ID
			switch {
			case res.refused:
				refused++
			case res.op.Hit:
				hitRT.add(keyOf[id], res.rt)
			default:
				poll = append(poll, ms(res.rt-res.compute))
			}
		}
		for _, f := range r.flights {
			switch f.Kind {
			case serve.KindStoreHit:
				hitSpan.add(f.Key, time.Duration(f.WallUS)*time.Microsecond)
			case serve.KindCompute:
				for _, s := range f.Spans {
					v := float64(s.DurUS) / 1000
					switch s.Name {
					case "queue":
						queue = append(queue, v)
					case "execute":
						execute = append(execute, v)
					case "store":
						storeMS = append(storeMS, v)
					}
				}
			}
		}
		getUS = append(getUS, r.getUS...)
		putUS = append(putUS, r.putUS...)
		hits += float64(r.stats.Hits)
		lookups += float64(r.stats.Hits + r.stats.Misses)
		bytes += float64(r.stats.Bytes)
		docs += float64(r.stats.Entries)
	}
	var keys []string
	for _, k := range hitSpan.keys {
		if _, ok := hitRT.best[k]; ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var spanUS, httpUS []float64
	for _, k := range keys {
		spanUS = append(spanUS, us(hitSpan.best[k]))
		httpUS = append(httpUS, us(hitRT.best[k]-hitSpan.best[k]))
	}
	// The server stamps its spans in whole microseconds, so these take the
	// interquartile mean, with a median's refusal of thin samples.
	for _, m := range []struct {
		name, unit string
		xs         []float64
	}{
		{"serve.hit_span_us", "us", spanUS},
		{"serve.http_hit_us", "us", httpUS},
		{"serve.queue_ms", "ms", queue},
		{"serve.execute_ms", "ms", execute},
		{"serve.store_ms", "ms", storeMS},
		{"serve.poll_overhead_ms", "ms", poll},
		{"store.get_us", "us", getUS},
		{"store.put_us", "us", putUS},
	} {
		if _, n, err := percentile(m.xs, 0.5); err != nil {
			return fmt.Errorf("%s: %w", m.name, err)
		} else {
			b.logf("%s: interquartile mean of %d samples", m.name, n)
		}
		b.set(m.name, midmean(m.xs), m.unit)
	}
	b.set("serve.refused", float64(refused), "count")
	b.set("store.hit_ratio", per(hits, lookups), "ratio")
	b.set("store.bytes_per_doc", per(bytes, docs), "B")
	return nil
}

// serviceClosure splits a traced round's client time into the server's
// own stage spans and the HTTP round trips around them; what the spans do
// not cover (job registration, flight bookkeeping) stays unattributed.
func (b *bench) serviceClosure(r *svcRound, untracedWall time.Duration) {
	var e2e, httpT, queue, execute, storeT time.Duration
	for _, res := range r.results {
		e2e += res.rt
		if res.op.Hit {
			httpT += res.rt
		} else {
			httpT += res.rt - res.compute
		}
	}
	for _, f := range r.flights {
		if f.Kind == serve.KindStoreHit {
			httpT -= time.Duration(f.WallUS) * time.Microsecond
		}
		for _, s := range f.Spans {
			d := time.Duration(s.DurUS) * time.Microsecond
			switch s.Name {
			case "queue":
				queue += d
			case "execute":
				execute += d
			case "store":
				storeT += d
			}
		}
	}
	b.logf("closure service round: %d submissions, wall %.3f ms traced vs %.3f ms fastest untraced (tracing overhead %.2f%%)",
		len(r.results), ms(r.wall), ms(untracedWall), 100*per(float64(r.wall-untracedWall), float64(untracedWall)))
	b.printClosure("service (client time summed over both clients)", e2e, -1, []closureLayer{
		{"http + client", httpT, "round trip - server time"},
		{"serve queue", queue, "flight spans"},
		{"serve execute", execute, "flight spans"},
		{"store", storeT, "flight spans, reads and writes"},
	})
}
