// Package kernels implements the paper's eight multimedia kernels — idct,
// motion1 (SAD), motion2 (SQD), rgb2ycc, compensation, addblock,
// ltpparameters and h2v2upsample — each in four ISA variants (Alpha scalar,
// MMX, MDMX, MOM), together with bit-exact golden verification against the
// reference implementations in internal/media.
//
// Every kernel follows the same pattern the paper's methodology used: the
// DLP-rich function is hand-written against the emulation ISA (here, the
// asm builder), the rest stays scalar, and the output in simulated memory
// is compared against the golden result computed natively.
package kernels

import (
	"encoding/binary"
	"fmt"

	"repro/internal/emu"
	"repro/internal/isa"
)

// Kernel bundles the program generators and the verifier for one kernel.
type Kernel struct {
	Name string
	// Build produces the program for one ISA level. Programs embed their
	// input data and write results to well-known symbols.
	Build func(ext isa.Ext) *isa.Program
	// Verify checks the results left in the machine's memory after
	// functional execution against the golden implementation.
	Verify func(p *isa.Program, m *emu.Machine) error
}

// Scale selects a workload size.
type Scale int

const (
	// ScaleTest is sized for unit tests (fast functional runs).
	ScaleTest Scale = iota
	// ScaleBench is sized for the Figure 5 / latency experiments.
	ScaleBench
)

// All returns the eight kernels of the paper at the given scale.
func All(sc Scale) []Kernel {
	return []Kernel{
		NewMotion1(sc),
		NewMotion2(sc),
		NewIDCT(sc),
		NewRGB2YCC(sc),
		NewCompensation(sc),
		NewAddBlock(sc),
		NewLTP(sc),
		NewH2V2(sc),
	}
}

// ByName returns the kernel with the given name at the given scale.
func ByName(name string, sc Scale) (Kernel, error) {
	for _, k := range All(sc) {
		if k.Name == name {
			return k, nil
		}
	}
	return Kernel{}, fmt.Errorf("kernels: unknown kernel %q", name)
}

// RunAndVerify executes the program functionally and applies the verifier.
func RunAndVerify(k Kernel, ext isa.Ext, maxSteps uint64) error {
	p := k.Build(ext)
	m := emu.New(p)
	if _, err := m.Run(maxSteps); err != nil {
		return fmt.Errorf("%s/%s: %w", k.Name, ext, err)
	}
	if err := k.Verify(p, m); err != nil {
		return fmt.Errorf("%s/%s: %w", k.Name, ext, err)
	}
	return nil
}

// ---- result extraction helpers ----

func readU64s(m *emu.Machine, addr uint64, n int) []uint64 {
	out := make([]uint64, n)
	b := m.Mem.Bytes(addr, 8*n)
	for i := range out {
		out[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return out
}

func readI16s(m *emu.Machine, addr uint64, n int) []int16 {
	out := make([]int16, n)
	b := m.Mem.Bytes(addr, 2*n)
	for i := range out {
		out[i] = int16(binary.LittleEndian.Uint16(b[2*i:]))
	}
	return out
}

func readBytes(m *emu.Machine, addr uint64, n int) []byte {
	b := m.Mem.Bytes(addr, n)
	out := make([]byte, n)
	copy(out, b)
	return out
}

// mismatch formats a first-difference error.
func mismatch(what string, i int, got, want interface{}) error {
	return fmt.Errorf("%s: index %d: got %v, want %v", what, i, got, want)
}
