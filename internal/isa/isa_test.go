package isa

import "testing"

func TestEveryOpcodeHasInfo(t *testing.T) {
	for _, op := range AllOpcodes() {
		in := op.Info()
		if in.Name == "" || in.Name == "op?" {
			t.Errorf("opcode %d has no name", op)
		}
		if in.Lat < 1 {
			t.Errorf("opcode %s has latency %d", in.Name, in.Lat)
		}
	}
}

func TestVectorTwinDerivation(t *testing.T) {
	// Every packed opcode has a vector twin with a "v" name, a vector
	// class, and Scalar() must invert Vector().
	for op := packedFirst; op < packedEnd; op++ {
		if !op.Known() {
			continue
		}
		v := op.Vector()
		if !v.Known() {
			t.Fatalf("%s has no registered vector twin", op.Info().Name)
		}
		if v.Scalar() != op {
			t.Errorf("Scalar(Vector(%s)) != %s", op.Info().Name, op.Info().Name)
		}
		if got := v.Info().Name; got != "v"+op.Info().Name {
			t.Errorf("vector twin of %s named %s", op.Info().Name, got)
		}
		if !v.Info().Class.IsVector() {
			t.Errorf("vector twin of %s has class %v", op.Info().Name, v.Info().Class)
		}
	}
}

func TestVectorOfScalarPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Vector() of a scalar opcode must panic")
		}
	}()
	ADDQ.Vector()
}

func TestCountByExtension(t *testing.T) {
	mmx, mdmx, mom := CountByExtension()
	if !(mmx < mdmx && mdmx < mom) {
		t.Errorf("counts must be increasing: %d %d %d", mmx, mdmx, mom)
	}
	t.Logf("instruction counts: MMX=%d MDMX=%d MOM=%d (paper: 67/88/121)", mmx, mdmx, mom)
}

func TestDepsOfConventions(t *testing.T) {
	// CMOV reads its destination.
	in := Inst{Op: CMOVLT, Dst: R(1), Src: [3]Reg{R(2), R(3)}}
	_, srcs := DepsOf(&in)
	found := false
	for _, s := range srcs {
		if s == R(1) {
			found = true
		}
	}
	if !found {
		t.Error("CMOV must read its destination")
	}
	// Accumulator ops read-modify-write the accumulator.
	in = Inst{Op: ACCMULH, Dst: A(0), Src: [3]Reg{M(1), M(2)}}
	_, srcs = DepsOf(&in)
	found = false
	for _, s := range srcs {
		if s == A(0) {
			found = true
		}
	}
	if !found {
		t.Error("ACC ops must read the accumulator")
	}
	// Vector ops depend on VL.
	in = Inst{Op: PADDB.Vector(), Dst: V(0), Src: [3]Reg{V(1), V(2)}}
	_, srcs = DepsOf(&in)
	found = false
	for _, s := range srcs {
		if s == VLReg {
			found = true
		}
	}
	if !found {
		t.Error("vector ops must read VL")
	}
	// SETVL writes VL.
	in = Inst{Op: SETVLI, Imm: 8}
	dst, _ := DepsOf(&in)
	if dst != VLReg {
		t.Error("SETVLI must write VL")
	}
	// Reads of R31 are dropped; writes to R31 are discarded.
	in = Inst{Op: ADDQ, Dst: R(31), Src: [3]Reg{R(31), R(2)}}
	dst, srcs = DepsOf(&in)
	if dst.Valid() {
		t.Error("write to R31 must be discarded")
	}
	for _, s := range srcs {
		if s.Kind == KindInt && s.Idx == 31 {
			t.Error("read of R31 must be dropped")
		}
	}
}

func TestRegString(t *testing.T) {
	cases := map[string]Reg{
		"r3": R(3), "f1": F(1), "m31": M(31), "a2": A(2), "v15": V(15), "va1": VA(1), "vl": VLReg,
	}
	for want, r := range cases {
		if got := r.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestClassPredicates(t *testing.T) {
	if !ClassMomLoad.IsMem() || !ClassMomLoad.IsVector() {
		t.Error("ClassMomLoad predicates wrong")
	}
	if ClassIntSimple.IsMem() || ClassIntSimple.IsVector() {
		t.Error("ClassIntSimple predicates wrong")
	}
	if !ClassLoad.IsMem() || ClassLoad.IsVector() {
		t.Error("ClassLoad predicates wrong")
	}
}

// TestClassesByCount: a mix orders by count, most frequent first, and
// equal counts order by class name, whatever the map's iteration order.
func TestClassesByCount(t *testing.T) {
	mix := map[Class]uint64{ClassStore: 5, ClassLoad: 5, ClassBranch: 9, ClassIntSimple: 5, ClassNop: 1}
	want := []Class{ClassBranch, ClassIntSimple, ClassLoad, ClassStore, ClassNop}
	for run := 0; run < 20; run++ {
		got := ClassesByCount(mix)
		if len(got) != len(want) {
			t.Fatalf("got %v, want %v", got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("run %d: got %v, want %v", run, got, want)
			}
		}
	}
	if got := ClassesByCount(map[Class]int{}); len(got) != 0 {
		t.Fatalf("empty mix gave %v", got)
	}
}
