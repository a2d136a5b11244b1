package mem

import (
	"fmt"
	"sort"

	"codesign/internal/sim"
)

// DRAM is the node main memory as a streaming device for the FPGA. The
// processor's own accesses are folded into its sustained compute rates
// (as the paper does); only FPGA-side streams are charged explicitly.
type DRAM struct {
	eng *sim.Engine
	// BandwidthBytes is Bd, the FPGA-visible DRAM bandwidth in bytes/s.
	BandwidthBytes float64
	chann          *sim.Resource
	bytesStreamed  int64
	dilate         func(start, dt float64) float64
}

// NewDRAM creates a DRAM with the given FPGA-visible bandwidth and a
// single streaming channel (transfers serialize, as on the RapidArray
// processor port).
func NewDRAM(e *sim.Engine, bandwidthBytes float64) *DRAM {
	if bandwidthBytes <= 0 {
		panic(fmt.Sprintf("mem: non-positive DRAM bandwidth %g", bandwidthBytes))
	}
	chann := sim.NewResource(e, "dram-stream", 1)
	chann.SetDevice(sim.DeviceDRAM)
	return &DRAM{eng: e, BandwidthBytes: bandwidthBytes, chann: chann}
}

// StreamTime returns the unloaded time to stream the given bytes.
func (d *DRAM) StreamTime(bytes int) float64 { return float64(bytes) / d.BandwidthBytes }

// SetDilation installs a fault-injection hook mapping a nominal stream
// duration starting at virtual time start to its degraded duration (a
// Bd throttle). Nil removes the hook; the hot path is untouched when
// none is installed.
func (d *DRAM) SetDilation(f func(start, dt float64) float64) { d.dilate = f }

// Fill returns a resource-free DMA step of dt seconds named name: a
// charge modeled off the DRAM path (the accelerator's operand fill
// lag) that degrades with the same Bd faults as explicit streams.
func (d *DRAM) Fill(name string, dt float64) sim.Step {
	return sim.Step{Charge: sim.Charge{Cat: sim.CatDMA, Dt: dt},
		Dev: sim.DeviceDRAM, Name: name, Dilate: d.dilate}
}

// Stream returns the step that transfers bytes between DRAM and the
// FPGA: it holds the streaming channel for bytes/Bd after any
// queueing, and is emitted as a DMA span carrying the payload size.
// The bytes count toward BytesStreamed when the step is built.
func (d *DRAM) Stream(bytes int) sim.Step {
	if bytes < 0 {
		panic(fmt.Sprintf("mem: negative stream size %d", bytes))
	}
	d.bytesStreamed += int64(bytes)
	return sim.Step{Charge: sim.Charge{Cat: sim.CatDMA, Bytes: int64(bytes), Dt: d.StreamTime(bytes)},
		Res: d.chann, Dilate: d.dilate}
}

// BytesStreamed returns the cumulative FPGA<->DRAM traffic.
func (d *DRAM) BytesStreamed() int64 { return d.bytesStreamed }

// BusySeconds returns cumulative busy time of the streaming channel.
func (d *DRAM) BusySeconds() float64 { return d.chann.BusySeconds() }

// AchievedBandwidth returns the average streamed bytes per second of
// virtual time so far — comparable against the peak BandwidthBytes
// (Bd) to see how much of the channel the run actually used.
func (d *DRAM) AchievedBandwidth() float64 {
	if d.eng.Now() <= 0 {
		return 0
	}
	return float64(d.bytesStreamed) / d.eng.Now()
}

// ContentionSeconds returns total virtual time processes queued on the
// streaming channel.
func (d *DRAM) ContentionSeconds() float64 { return d.chann.ContentionSeconds() }

// Agent identifies who touches memory, for hazard checking.
type Agent int

// The two agents of Section 4.4.
const (
	CPU Agent = iota
	FPGA
)

func (a Agent) String() string {
	if a == CPU {
		return "CPU"
	}
	return "FPGA"
}

type span struct {
	lo, hi int64 // [lo, hi)
	agent  Agent
	write  bool
}

// Violation records one coordination failure detected by the Tracker.
type Violation struct {
	Kind string // "write-write" or "read-after-write"
	A, B Agent
	Lo   int64
	Hi   int64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s conflict between %s and %s on [%d,%d)", v.Kind, v.A, v.B, v.Lo, v.Hi)
}

// Tracker enforces the hardware/software memory-coordination rules of
// Section 4.4 within one synchronization epoch: the processor and the
// FPGA must write to disjoint locations, and neither may read a region
// the other wrote in the same epoch (a read-after-write hazard — the
// reader needs permission, i.e. a Sync, first). Sync marks a
// coordination point (start signal / done notification) and opens a new
// epoch.
type Tracker struct {
	spans      []span
	violations []Violation
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker { return &Tracker{} }

// Write records that agent a writes [lo, hi) in the current epoch.
func (t *Tracker) Write(a Agent, lo, hi int64) { t.access(a, lo, hi, true) }

// Read records that agent a reads [lo, hi) in the current epoch.
func (t *Tracker) Read(a Agent, lo, hi int64) { t.access(a, lo, hi, false) }

func (t *Tracker) access(a Agent, lo, hi int64, write bool) {
	if lo > hi {
		panic(fmt.Sprintf("mem: bad span [%d,%d)", lo, hi))
	}
	for _, s := range t.spans {
		if s.agent == a || hi <= s.lo || s.hi <= lo {
			continue
		}
		switch {
		case write && s.write:
			t.violations = append(t.violations, Violation{
				Kind: "write-write", A: s.agent, B: a, Lo: maxI(lo, s.lo), Hi: minI(hi, s.hi)})
		case write != s.write && (write || s.write):
			// One side wrote, the other reads without a Sync between.
			t.violations = append(t.violations, Violation{
				Kind: "read-after-write", A: s.agent, B: a, Lo: maxI(lo, s.lo), Hi: minI(hi, s.hi)})
		}
	}
	t.spans = append(t.spans, span{lo: lo, hi: hi, agent: a, write: write})
}

// Sync marks a coordination point: the agents have exchanged a
// start/done signal, so prior accesses no longer conflict with future
// ones.
func (t *Tracker) Sync() { t.spans = t.spans[:0] }

// Violations returns all detected conflicts, ordered by detection.
func (t *Tracker) Violations() []Violation {
	out := make([]Violation, len(t.violations))
	copy(out, t.violations)
	return out
}

// Ok reports whether no conflict has been detected.
func (t *Tracker) Ok() bool { return len(t.violations) == 0 }

// SRAM is the FPGA's on-board QDR-II memory: a fixed number of banks of
// fixed capacity, with an allocator for design buffers.
type SRAM struct {
	Banks        int
	BytesPerBank int64
	allocs       map[string]int64
}

// NewSRAM creates an SRAM with the given geometry.
func NewSRAM(banks int, bytesPerBank int64) *SRAM {
	if banks < 1 || bytesPerBank < 1 {
		panic("mem: bad SRAM geometry")
	}
	return &SRAM{Banks: banks, BytesPerBank: bytesPerBank, allocs: make(map[string]int64)}
}

// TotalBytes returns the total capacity.
func (s *SRAM) TotalBytes() int64 { return int64(s.Banks) * s.BytesPerBank }

// FreeBytes returns unallocated capacity.
func (s *SRAM) FreeBytes() int64 {
	free := s.TotalBytes()
	for _, b := range s.allocs {
		free -= b
	}
	return free
}

// Alloc reserves bytes under the given label; it fails when capacity is
// exhausted or the label is taken.
func (s *SRAM) Alloc(label string, bytes int64) error {
	if bytes < 0 {
		return fmt.Errorf("mem: negative SRAM allocation %d", bytes)
	}
	if _, dup := s.allocs[label]; dup {
		return fmt.Errorf("mem: SRAM label %q already allocated", label)
	}
	if bytes > s.FreeBytes() {
		return fmt.Errorf("mem: SRAM exhausted: need %d bytes, %d free of %d",
			bytes, s.FreeBytes(), s.TotalBytes())
	}
	s.allocs[label] = bytes
	return nil
}

// Free releases a labeled allocation.
func (s *SRAM) Free(label string) {
	delete(s.allocs, label)
}

// Allocations lists labels in sorted order (for reports).
func (s *SRAM) Allocations() []string {
	out := make([]string, 0, len(s.allocs))
	for l := range s.allocs {
		out = append(out, l)
	}
	sort.Strings(out)
	return out
}

func minI(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func maxI(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
