// Command momasm builds a kernel program for a chosen ISA level and prints
// its disassembly and static statistics — useful for inspecting what the
// "compiler" (the program builders) emits for each ISA.
//
//	momasm -kernel motion1 -isa MOM
//	momasm -kernel idct -isa MMX -stats
package main

import (
	"flag"
	"fmt"
	"os"

	mom "repro"
	"repro/internal/isa"
)

func main() {
	var (
		kernel    = flag.String("kernel", "motion1", "kernel name")
		isaStr    = flag.String("isa", "MOM", "ISA: Alpha|MMX|MDMX|MOM")
		statsOnly = flag.Bool("stats", false, "print static statistics only")
		limit     = flag.Int("n", 0, "print at most n instructions (0 = all)")
	)
	flag.Parse()

	level, err := mom.ParseISA(*isaStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "momasm:", err)
		os.Exit(1)
	}

	p, err := mom.BuildKernel(*kernel, level, mom.ScaleTest)
	if err != nil {
		fmt.Fprintln(os.Stderr, "momasm:", err)
		os.Exit(1)
	}

	st := p.Stats()
	fmt.Printf("%s: %d static instructions, %d bytes of data\n",
		p.Name, st.Total, len(p.Data))
	for _, c := range isa.ClassesByCount(st.ByClass) {
		n := st.ByClass[c]
		fmt.Printf("  %-8s %6d (%.1f%%)\n", c, n, 100*float64(n)/float64(st.Total))
	}
	if *statsOnly {
		return
	}
	fmt.Println()
	for idx, in := range p.Insts {
		fmt.Printf("%5d: %s\n", idx, in.String())
		if *limit > 0 && idx+1 >= *limit {
			fmt.Printf("... (%d more)\n", len(p.Insts)-idx-1)
			break
		}
	}
}
