package cpu

import (
	"encoding/json"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
)

// TestResultJSONGoFieldNames pins the timing core's result encoding: Go
// field names throughout, although mem.Stats and obs.Profile carry the
// json tags of the public documents. perfbench's pinned timing-core
// digests hash this encoding.
func TestResultJSONGoFieldNames(t *testing.T) {
	r := Result{Cycles: 1, Insts: 2, WordOps: 3, Branches: 4, Mispredicts: 5, BTBMisses: 6, Loads: 7, Stores: 8,
		Mem:     mem.Stats{Loads: 9, L1Hits: 10, Unaligned: 11},
		Profile: obs.Profile{Commit: 12, DepLatency: 13},
		Sampled: &Sampled{Spec: SampleSpec{Period: 14, Warmup: 15, Interval: 16}, Intervals: 17, IPCMean: 0.5, IPCStdErr: 1e-9}}
	r.ByClass[3] = 18
	for _, c := range []struct {
		r    Result
		want string
	}{
		{r, `{"Cycles":1,"Insts":2,"WordOps":3,"Branches":4,"Mispredicts":5,"BTBMisses":6,"Loads":7,"Stores":8,"ByClass":[0,0,0,18,0,0,0,0,0,0,0,0,0,0,0,0],"Mem":{"Loads":9,"Stores":0,"VecLoads":0,"VecStores":0,"VecElems":0,"L1Lookups":0,"L1Hits":10,"L1Misses":0,"L1StoreHits":0,"L1StoreMisses":0,"L1VecInvals":0,"L2Lookups":0,"L2Hits":0,"L2Misses":0,"LineAccesses":0,"BankConflicts":0,"MSHRStalls":0,"WriteBufStalls":0,"WriteBufDrains":0,"DRAMChanBusy":0,"DRAMBankBusy":0,"Unaligned":11},"Profile":{"Commit":12,"Frontend":0,"Mispredict":0,"RenameROB":0,"IssueQueue":0,"FU":0,"MemWait":0,"StoreCommit":0,"DepLatency":13},"Sampled":{"Spec":{"Period":14,"Warmup":15,"Interval":16,"Parallelism":0},"Intervals":17,"MeasuredInsts":0,"WarmupInsts":0,"SkippedInsts":0,"TotalInsts":0,"IPCMean":0.5,"IPCStdErr":1e-9}}`},
		{Result{}, `{"Cycles":0,"Insts":0,"WordOps":0,"Branches":0,"Mispredicts":0,"BTBMisses":0,"Loads":0,"Stores":0,"ByClass":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0],"Mem":{"Loads":0,"Stores":0,"VecLoads":0,"VecStores":0,"VecElems":0,"L1Lookups":0,"L1Hits":0,"L1Misses":0,"L1StoreHits":0,"L1StoreMisses":0,"L1VecInvals":0,"L2Lookups":0,"L2Hits":0,"L2Misses":0,"LineAccesses":0,"BankConflicts":0,"MSHRStalls":0,"WriteBufStalls":0,"WriteBufDrains":0,"DRAMChanBusy":0,"DRAMBankBusy":0,"Unaligned":0},"Profile":{"Commit":0,"Frontend":0,"Mispredict":0,"RenameROB":0,"IssueQueue":0,"FU":0,"MemWait":0,"StoreCommit":0,"DepLatency":0},"Sampled":null}`},
	} {
		got, err := json.Marshal(c.r)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != c.want {
			t.Errorf("json.Marshal(Result):\n got %s\nwant %s", got, c.want)
		}
	}
}
