package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"

	mom "repro"
	"repro/internal/cpu"
)

// goldenEntry pins one unit's simulated result.
type goldenEntry struct {
	// SHA256 is the digest of the unit's canonical result document:
	// mom.WriteResultJSON output, or the RunJobRequest document for the
	// service workload.
	SHA256 string `json:"sha256"`
	// CPUSHA256 is the digest of the timing core's own result for
	// fig7-sampled units, whose later repeats call cpu.Sim.RunSampled on a
	// fresh trace copy.
	CPUSHA256 string `json:"cpu_sha256,omitempty"`
	// Cycles is the exact simulated cycle count (figures-exact).
	Cycles int64 `json:"cycles,omitempty"`
}

// golden maps workload → unit ID → pinned result.
type golden map[string]map[string]goldenEntry

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// resultDoc is a mom.Result's canonical document.
func resultDoc(r mom.Result) []byte {
	var b bytes.Buffer
	if err := mom.WriteResultJSON(&b, r); err != nil {
		panic(err) // a Result always encodes
	}
	return b.Bytes()
}

// cpuDigest is the digest of a timing-core result's JSON encoding.
func cpuDigest(r cpu.Result) string {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a cpu.Result always encodes
	}
	return digest(b)
}

func loadGolden(path string) (golden, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden: %w", err)
	}
	var g golden
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", path, err)
	}
	return g, nil
}

// entry returns the pinned result of one unit.
func (g golden) entry(workload, id string) (goldenEntry, error) {
	e, ok := g[workload][id]
	if !ok {
		return e, fmt.Errorf("golden: no entry for %s %s", workload, id)
	}
	return e, nil
}

// checkDoc compares a unit's canonical document with its pinned digest.
func (g golden) checkDoc(workload, id string, doc []byte) error {
	e, err := g.entry(workload, id)
	if err != nil {
		return err
	}
	if got := digest(doc); got != e.SHA256 {
		return fmt.Errorf("golden mismatch: %s %s: document digest %.12s, want %.12s", workload, id, got, e.SHA256)
	}
	return nil
}

// checkExact pins an exact result: its invariants, its cycles and its
// document.
func (g golden) checkExact(workload string, u unit, r mom.Result) error {
	if err := r.CheckInvariants(); err != nil {
		return fmt.Errorf("%s: %w", u.ID, err)
	}
	e, err := g.entry(workload, u.ID)
	if err != nil {
		return err
	}
	if e.Cycles != 0 && r.Cycles != e.Cycles {
		return fmt.Errorf("golden mismatch: %s %s: %d cycles, want %d", workload, u.ID, r.Cycles, e.Cycles)
	}
	return g.checkDoc(workload, u.ID, resultDoc(r))
}

// moved lists the units whose entries differ between two goldens, and
// those present in only one of them.
func moved(old, new golden) []string {
	var out []string
	for w, units := range new {
		for id, e := range units {
			if o, ok := old[w][id]; !ok || o != e {
				out = append(out, w+" "+id)
			}
		}
	}
	for w, units := range old {
		for id := range units {
			if _, ok := new[w][id]; !ok {
				out = append(out, w+" "+id+" (removed)")
			}
		}
	}
	sort.Strings(out)
	return out
}

func writeGolden(path string, g golden) error {
	b, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// updateGolden runs every unit of every workload once, untimed, writes the
// golden file and lists the units whose results moved.
func updateGolden(path string) int {
	old, err := loadGolden(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no previous golden:", err)
		old = golden{}
	}
	g, err := computeGolden()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	mv := moved(old, g)
	for _, id := range mv {
		fmt.Println("moved:", id)
	}
	if err := writeGolden(path, g); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("golden: %d units moved, written to %s\n", len(mv), path)
	return 0
}

func computeGolden() (golden, error) {
	g := golden{"figures-exact": {}, "fig7-sampled": {}, "service": {}}
	for _, u := range append(fig5Units(), fig7Units()...) {
		res, err := runExact(u)
		if err == nil {
			err = res.CheckInvariants()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.ID, err)
		}
		g["figures-exact"][u.ID] = goldenEntry{SHA256: digest(resultDoc(res)), Cycles: res.Cycles}
	}
	for _, u := range fig7Units() {
		res, err := mom.RunAppSampled(u.Name, u.ISA, u.Width, u.model(), scale, sampledSpec())
		if err == nil {
			err = res.CheckInvariants()
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.ID, err)
		}
		tr := mom.CaptureWorkloadTrace(u.App, u.Name, u.ISA, scale)
		cres, err := runSampledCPU(u, tr, cpuSpec(sampledSpec()))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", u.ID, err)
		}
		if cres.Cycles != res.Cycles || cres.Sampled.TotalInsts != res.Sampled.TotalInsts {
			return nil, fmt.Errorf("%s: timing core and mom entry point disagree", u.ID)
		}
		g["fig7-sampled"][u.ID] = goldenEntry{SHA256: digest(resultDoc(res)), CPUSHA256: cpuDigest(cres)}
	}
	for _, p := range servicePoints() {
		doc, err := mom.RunJobRequest(context.Background(), p.request(mom.SampleSpec{}))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.ID, err)
		}
		g["service"][p.ID] = goldenEntry{SHA256: digest(doc)}
	}
	if n := mom.ReadTraceStats().LiveRuns; n != 0 {
		return nil, fmt.Errorf("%d runs fell back to live emulation", n)
	}
	return g, nil
}
