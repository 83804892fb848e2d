// Package obs is the instruction-level observability layer of the timing
// simulator. The CPU core publishes one Event per dynamic instruction —
// its lifecycle timestamps through the pipeline, its commit-frontier stall
// attribution, and the memory-system events its accesses triggered — to an
// optional Observer. A nil observer costs nothing: the core only assembles
// events when one is attached, so cycle counts and every reported counter
// are bit-identical with observation on or off (the same contract the
// capture/replay trace layer keeps: live and replayed runs publish
// identical event streams).
//
// The package also owns the stall taxonomy itself: Bucket names one
// entry, and Profile is the nine-bucket cycle breakdown the core fills
// for every run and the public result documents carry.
//
// Two consumers ship with the package: Hotspot aggregates events into a
// per-static-instruction (per-PC) profile whose attributed cycles sum
// exactly to the run's Profile; Recorder keeps the events of a window of
// the dynamic instruction stream, which WriteKonata encodes as a Kanata
// log (loadable in the Konata pipeline viewer) and WriteChrome as Chrome
// trace-event JSON (loadable in Perfetto / chrome://tracing).
package obs

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/mem"
)

// Bucket names one entry of the cycle-attribution stall taxonomy; the
// values follow Profile's fields in canonical display order.
type Bucket uint8

// The nine buckets of the stall taxonomy.
const (
	BucketCommit Bucket = iota
	BucketFrontend
	BucketMispredict
	BucketRenameROB
	BucketIssueQueue
	BucketFU
	BucketMemWait
	BucketStoreCommit
	BucketDepLatency
)

// NumBuckets is the number of stall-taxonomy buckets.
const NumBuckets = int(BucketDepLatency) + 1

var bucketNames = [NumBuckets]string{
	"commit", "frontend", "mispredict", "rename/rob", "issue",
	"fu", "mem", "store", "dep/lat",
}

func (b Bucket) String() string {
	if int(b) < NumBuckets {
		return bucketNames[b]
	}
	return "?"
}

// Profile attributes every simulated cycle to the machine structure that
// bounded forward progress during it. The commit stage is in order, so the
// simulated time is exactly the path of the commit frontier: whenever the
// frontier advances past a cycle in which nothing graduated, that cycle was
// lost to whichever constraint held back the instruction that eventually
// advanced it. The buckets always sum to the run's cycles — the identity
// every profile consumer relies on. The json tags name the fields of the
// public result documents.
type Profile struct {
	// Commit counts cycles in which at least one instruction graduated.
	Commit int64 `json:"commit"`
	// Frontend counts cycles lost refilling the fetch/decode pipe: initial
	// fill, taken-branch fetch breaks and BTB-miss bubbles.
	Frontend int64 `json:"frontend"`
	// Mispredict counts cycles lost to branch-mispredict redirects.
	Mispredict int64 `json:"mispredict"`
	// RenameROB counts dispatch stalls on a full ROB, LSQ or exhausted
	// physical (rename) registers.
	RenameROB int64 `json:"rename_rob"`
	// IssueQueue counts cycles waiting for an issue slot (issue-width
	// contention among ready instructions).
	IssueQueue int64 `json:"issue_queue"`
	// FU counts cycles waiting for a functional unit or vector lane.
	FU int64 `json:"fu"`
	// MemWait counts cycles waiting for load data (scalar or vector) to
	// return from the memory system.
	MemWait int64 `json:"mem_wait"`
	// StoreCommit counts commit stalls draining stores into the memory
	// system (write-buffer back-pressure at graduation).
	StoreCommit int64 `json:"store_commit"`
	// DepLatency counts cycles serialised on data dependences and raw
	// execution latency with no structural resource at fault.
	DepLatency int64 `json:"dep_latency"`
}

// buckets returns p's counters in Bucket order.
func (p *Profile) buckets() [NumBuckets]*int64 {
	return [NumBuckets]*int64{&p.Commit, &p.Frontend, &p.Mispredict, &p.RenameROB,
		&p.IssueQueue, &p.FU, &p.MemWait, &p.StoreCommit, &p.DepLatency}
}

// Total sums every bucket; it equals the run's cycles for any completed
// run.
func (p Profile) Total() int64 {
	var t int64
	for _, c := range p.buckets() {
		t += *c
	}
	return t
}

// Add accumulates o into p bucket by bucket.
func (p *Profile) Add(o Profile) {
	ob := o.buckets()
	for b, c := range p.buckets() {
		*c += *ob[b]
	}
}

// Sub subtracts o from p bucket by bucket.
func (p *Profile) Sub(o Profile) {
	ob := o.buckets()
	for b, c := range p.buckets() {
		*c -= *ob[b]
	}
}

// ProfileBucket is one named entry of the stall taxonomy.
type ProfileBucket struct {
	Name   string
	Cycles int64
}

// Buckets returns the taxonomy in canonical display order.
func (p Profile) Buckets() []ProfileBucket {
	out := make([]ProfileBucket, NumBuckets)
	for b, c := range p.buckets() {
		out[b] = ProfileBucket{Bucket(b).String(), *c}
	}
	return out
}

// Event is one dynamic instruction's trip through the pipeline. The core
// passes events by pointer and reuses the backing storage: observers that
// retain an event past the Observe call must copy it.
type Event struct {
	Seq   uint64    // dynamic instruction number (0-based program order)
	PC    int       // static instruction index
	Class isa.Class // operation class
	VL    int       // vector length governing the op (vector classes)
	Taken bool      // branch outcome (branch class)

	// Lifecycle timestamps (absolute cycles). Fetch <= Dispatch < Issue <=
	// Complete < Commit always holds; Issue is the cycle the instruction won
	// an issue slot (its operand-ready cycle for no-issue NOPs).
	Fetch    int64
	Dispatch int64
	Issue    int64
	Complete int64
	Commit   int64

	// Commit-frontier attribution: the exact cycles this instruction's
	// graduation charged to the run profile. Committed is 1 when the commit
	// frontier advanced (one useful commit cycle), StoreGap is the cycles
	// charged to the store-drain bucket, and ExecGap is the cycles charged
	// to Bucket. Summing Committed+ExecGap+StoreGap over a run's events,
	// bucket by bucket, reproduces the run profile exactly.
	Committed int64
	Bucket    Bucket
	ExecGap   int64
	StoreGap  int64

	// Mem is the memory-system outcome of this instruction's accesses
	// (zero for non-memory instructions and perfect memories).
	Mem mem.Outcome
}

// Observer consumes the per-dynamic-instruction event stream of a run.
type Observer interface {
	// Observe is called once per dynamic instruction, in program (commit)
	// order. The event pointer is only valid for the duration of the call.
	Observe(ev *Event)
}

// Recorder keeps a copy of every event of the window [Start, Start+Count)
// of the dynamic instruction stream (Count 0: from Start to the end of the
// run). The zero Recorder keeps every event; the pipeline exports encode
// its window, and the equivalence tests compare live and replayed runs
// event for event through it.
type Recorder struct {
	Start, Count uint64
	Events       []Event
}

// Observe appends a copy of the event if it falls inside the window.
func (r *Recorder) Observe(ev *Event) {
	if ev.Seq < r.Start || (r.Count > 0 && ev.Seq >= r.Start+r.Count) {
		return
	}
	r.Events = append(r.Events, *ev)
}

// label is the display text of a static instruction: its disassembly, or
// its PC for an instruction outside disasm.
func label(disasm []string, pc int) string {
	if pc >= 0 && pc < len(disasm) {
		return disasm[pc]
	}
	return fmt.Sprintf("@%d", pc)
}
