package mem

import (
	"math"
	"testing"

	"codesign/internal/sim"
)

func TestStreamTime(t *testing.T) {
	e := sim.New()
	d := NewDRAM(e, 1000)
	if got := d.StreamTime(2500); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("StreamTime = %v, want 2.5", got)
	}
}

func TestStreamChargesTime(t *testing.T) {
	e := sim.New()
	d := NewDRAM(e, 100)
	e.Go("fpga", func(p *sim.Proc) {
		p.Do(d.Stream(300))
		if p.Now() != 3 {
			t.Errorf("stream finished at %v, want 3", p.Now())
		}
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if d.BytesStreamed() != 300 {
		t.Fatalf("BytesStreamed = %d", d.BytesStreamed())
	}
	if math.Abs(d.BusySeconds()-3) > 1e-12 {
		t.Fatalf("BusySeconds = %v", d.BusySeconds())
	}
}

func TestStreamsSerialize(t *testing.T) {
	e := sim.New()
	d := NewDRAM(e, 100)
	var t1, t2 float64
	e.Go("a", func(p *sim.Proc) { p.Do(d.Stream(100)); t1 = p.Now() })
	e.Go("b", func(p *sim.Proc) { p.Do(d.Stream(100)); t2 = p.Now() })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if t1 != 1 || t2 != 2 {
		t.Fatalf("stream finishes %v, %v; want 1, 2", t1, t2)
	}
}

func TestBadBandwidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDRAM(sim.New(), 0)
}

func TestTrackerDisjointWritesOk(t *testing.T) {
	tr := NewTracker()
	tr.Write(CPU, 0, 100)
	tr.Write(FPGA, 100, 200)
	if !tr.Ok() {
		t.Fatalf("disjoint writes flagged: %v", tr.Violations())
	}
}

func TestTrackerWriteWriteConflict(t *testing.T) {
	tr := NewTracker()
	tr.Write(CPU, 0, 100)
	tr.Write(FPGA, 50, 150)
	v := tr.Violations()
	if len(v) != 1 || v[0].Kind != "write-write" {
		t.Fatalf("violations = %v", v)
	}
	if v[0].Lo != 50 || v[0].Hi != 100 {
		t.Fatalf("overlap = [%d,%d)", v[0].Lo, v[0].Hi)
	}
}

func TestTrackerSameAgentOverlapOk(t *testing.T) {
	tr := NewTracker()
	tr.Write(CPU, 0, 100)
	tr.Write(CPU, 50, 150)
	if !tr.Ok() {
		t.Fatal("same-agent overlap must be fine")
	}
}

func TestTrackerReadAfterWriteHazard(t *testing.T) {
	tr := NewTracker()
	tr.Write(CPU, 0, 100)
	tr.Read(FPGA, 0, 10) // FPGA reads before permission
	v := tr.Violations()
	if len(v) != 1 || v[0].Kind != "read-after-write" {
		t.Fatalf("violations = %v", v)
	}
}

func TestTrackerWriteAfterReadHazard(t *testing.T) {
	tr := NewTracker()
	tr.Read(FPGA, 0, 100)
	tr.Write(CPU, 50, 60)
	if tr.Ok() {
		t.Fatal("write over a concurrent read must be flagged")
	}
}

func TestTrackerReadsDontConflict(t *testing.T) {
	tr := NewTracker()
	tr.Read(CPU, 0, 100)
	tr.Read(FPGA, 0, 100)
	if !tr.Ok() {
		t.Fatal("concurrent reads flagged")
	}
}

func TestTrackerSyncClearsEpoch(t *testing.T) {
	tr := NewTracker()
	tr.Write(CPU, 0, 100)
	tr.Sync() // coordination point: permission granted
	tr.Read(FPGA, 0, 100)
	if !tr.Ok() {
		t.Fatalf("post-sync read flagged: %v", tr.Violations())
	}
}

func TestTrackerAdjacentSpansOk(t *testing.T) {
	tr := NewTracker()
	tr.Write(CPU, 0, 100)
	tr.Write(FPGA, 100, 101) // touching, not overlapping
	if !tr.Ok() {
		t.Fatal("adjacent spans flagged")
	}
}

func TestSRAMAllocation(t *testing.T) {
	s := NewSRAM(4, 2<<20) // 4 banks x 2 MB
	if s.TotalBytes() != 8<<20 {
		t.Fatalf("total = %d", s.TotalBytes())
	}
	if err := s.Alloc("C-buffer", 6<<20); err != nil {
		t.Fatal(err)
	}
	if got := s.FreeBytes(); got != 2<<20 {
		t.Fatalf("free = %d", got)
	}
	if err := s.Alloc("too-big", 3<<20); err == nil {
		t.Fatal("over-allocation accepted")
	}
	if err := s.Alloc("C-buffer", 1); err == nil {
		t.Fatal("duplicate label accepted")
	}
	s.Free("C-buffer")
	if s.FreeBytes() != 8<<20 {
		t.Fatal("Free did not reclaim")
	}
}

func TestSRAMAllocationsSorted(t *testing.T) {
	s := NewSRAM(1, 1<<20)
	_ = s.Alloc("b", 1)
	_ = s.Alloc("a", 1)
	got := s.Allocations()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Allocations = %v", got)
	}
}

func TestViolationString(t *testing.T) {
	v := Violation{Kind: "write-write", A: CPU, B: FPGA, Lo: 1, Hi: 2}
	if v.String() == "" {
		t.Fatal("empty violation string")
	}
}
