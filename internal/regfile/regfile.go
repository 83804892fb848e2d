// Package regfile implements the register-file area model used to
// reproduce Table 2 of the paper: although the MOM matrix register file
// holds about five times the bits of the MMX file, interleaving the
// elements of every matrix register across banks lets each bank make do
// with far fewer ports, so the estimated area is of the same order.
//
// The model follows the standard port-dominated cell-growth law (as in
// López et al., which the paper cites): the area of one storage cell grows
// with the square of the port count, because every read port adds a
// wordline and every write port adds a wordline and a bitline pair:
//
//	cellArea(r, w) = (r + w + overhead) * (r + 2*w + overhead)
//
// A banked file pays a per-bank fixed overhead (decoders, sense amps and
// the inter-bank interconnect/crossbar).
package regfile

// Config describes one register file.
type Config struct {
	Name      string
	Regs      int // physical registers
	BitsPer   int // bits per register
	ReadPorts int
	WrPorts   int
	Banks     int // interleaving banks (1 = monolithic)
}

// Model carries the calibration constants of the area model.
type Model struct {
	// CellOverhead models the port-independent part of a cell (supply
	// rails, device area).
	CellOverhead float64
	// BankOverhead is the fixed per-bank cost, expressed in equivalent
	// cell-area units, covering decoders and the crossbar that routes
	// lanes to banks.
	BankOverhead float64
}

// DefaultModel is calibrated so the Table 2 ratios come out as published
// (MMX 1.0, MDMX ~1.19, MOM ~0.87 on the 4-way machine).
var DefaultModel = Model{CellOverhead: 1.0, BankOverhead: 5000}

// Area returns the estimated area of the file in arbitrary units.
func (m Model) Area(c Config) float64 {
	banks := c.Banks
	if banks < 1 {
		banks = 1
	}
	bitsPerBank := float64(c.Regs*c.BitsPer) / float64(banks)
	r, w := float64(c.ReadPorts), float64(c.WrPorts)
	cell := (r + w + m.CellOverhead) * (r + 2*w + m.CellOverhead)
	area := float64(banks) * bitsPerBank * cell
	if banks > 1 {
		area += float64(banks) * m.BankOverhead
	}
	return area
}

// SizeBytes returns the raw storage of the file.
func SizeBytes(c Config) int { return c.Regs * c.BitsPer / 8 }

// Table2Entry is one row of the reproduced table. The json tags name the
// fields of the public table2 document (mom.Table2Entry is this type).
type Table2Entry struct {
	ISA            string  `json:"isa"`
	MediaRegs      string  `json:"media_regs"` // log/phys
	AccRegs        string  `json:"acc_regs"`
	MediaPorts     string  `json:"media_ports"` // rd/wr
	AccPorts       string  `json:"acc_ports"`
	SizeBytes      int     `json:"size_bytes"`
	NormalizedArea float64 `json:"normalized_area"`
}

// The Table 2 register-file configurations of the 4-way machine: MMX
// needs a 6r/3w monolithic 64x64b file; MDMX adds a 4r/2w accumulator
// file; MOM interleaves 20 matrix registers across 8 banks of 2r/1w each
// (plus a small accumulator file). Shared by Table2 and NormalizedArea so
// the report rows of the design-space sweep engine cite exactly the
// published area model.
var (
	mmxMedia  = Config{Name: "MMX media", Regs: 64, BitsPer: 64, ReadPorts: 6, WrPorts: 3, Banks: 1}
	mdmxMedia = Config{Name: "MDMX media", Regs: 52, BitsPer: 64, ReadPorts: 6, WrPorts: 3, Banks: 1}
	mdmxAcc   = Config{Name: "MDMX acc", Regs: 16, BitsPer: 192, ReadPorts: 4, WrPorts: 2, Banks: 1}
	momMedia  = Config{Name: "MOM media", Regs: 20, BitsPer: 16 * 64, ReadPorts: 2, WrPorts: 1, Banks: 8}
	momAcc    = Config{Name: "MOM acc", Regs: 4, BitsPer: 192, ReadPorts: 2, WrPorts: 1, Banks: 1}
)

// NormalizedArea returns the estimated multimedia register-file area of
// one ISA level, normalised to the MMX file (the Table 2 convention:
// MMX 1.0, MDMX ~1.19, MOM ~0.87). Alpha carries no multimedia file, so
// its area is 0. The second return is false for names outside the four
// ISA levels; the canonical spellings of mom.ISA.String() are expected
// ("Alpha", "MMX", "MDMX", "MOM").
func NormalizedArea(isa string) (float64, bool) {
	m := DefaultModel
	base := m.Area(mmxMedia)
	switch isa {
	case "Alpha":
		return 0, true
	case "MMX":
		return m.Area(mmxMedia) / base, true
	case "MDMX":
		return (m.Area(mdmxMedia) + m.Area(mdmxAcc)) / base, true
	case "MOM":
		return (m.Area(momMedia) + m.Area(momAcc)) / base, true
	}
	return 0, false
}

// Table2 reproduces the multimedia register file comparison for the 4-way
// machine from the shared configurations above.
func Table2() []Table2Entry {
	m := DefaultModel

	base := m.Area(mmxMedia)
	return []Table2Entry{
		{
			ISA: "MMX", MediaRegs: "32/64", AccRegs: "-",
			MediaPorts: "6/3", AccPorts: "-",
			SizeBytes:      SizeBytes(mmxMedia),
			NormalizedArea: m.Area(mmxMedia) / base,
		},
		{
			ISA: "MDMX", MediaRegs: "32/52", AccRegs: "4/16",
			MediaPorts: "6/3", AccPorts: "4/2",
			SizeBytes:      SizeBytes(mdmxMedia) + SizeBytes(mdmxAcc),
			NormalizedArea: (m.Area(mdmxMedia) + m.Area(mdmxAcc)) / base,
		},
		{
			ISA: "MOM", MediaRegs: "16/20", AccRegs: "2/4",
			MediaPorts: "2/1 (8-b)", AccPorts: "2/1",
			SizeBytes:      SizeBytes(momMedia) + SizeBytes(momAcc),
			NormalizedArea: (m.Area(momMedia) + m.Area(momAcc)) / base,
		},
	}
}
