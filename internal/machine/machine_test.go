package machine

import (
	"math"
	"testing"

	"codesign/internal/cpu"
	"codesign/internal/fpga"
	"codesign/internal/mpi"
	"codesign/internal/sim"
)

func TestXD1Preset(t *testing.T) {
	cfg := XD1()
	if cfg.Nodes != 6 || cfg.Fabric.LinkBandwidth != 2e9 || cfg.Fabric.LinksPerNode != 2 {
		t.Fatalf("XD1 preset wrong: %+v", cfg)
	}
	if cfg.Device.Name != "XC2VP50" {
		t.Fatalf("XD1 device = %s", cfg.Device.Name)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Nodes) != 6 {
		t.Fatalf("built %d nodes", len(s.Nodes))
	}
	// 16 MB SRAM per node.
	if got := s.Nodes[0].SRAM.TotalBytes(); got != 16<<20 {
		t.Fatalf("SRAM = %d bytes", got)
	}
}

func TestAllPresetsBuild(t *testing.T) {
	for _, cfg := range []Config{XD1(), XT3DRC(), SRC6(), RASC()} {
		s, err := New(cfg)
		if err != nil {
			t.Fatalf("%s: %v", cfg.Name, err)
		}
		if err := s.InstallDesign(fpga.NewMatMul(4)); err != nil {
			t.Fatalf("%s: install: %v", cfg.Name, err)
		}
	}
}

func TestValidation(t *testing.T) {
	bad := XD1()
	bad.Nodes = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero nodes accepted")
	}
	bad = XD1()
	bad.Fabric.Nodes = 3
	if _, err := New(bad); err == nil {
		t.Fatal("fabric/node mismatch accepted")
	}
	bad = XD1()
	bad.Processor = nil
	if _, err := New(bad); err == nil {
		t.Fatal("missing processor accepted")
	}
	bad = XD1()
	bad.RawFPGADRAMBandwidth = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero DRAM bandwidth accepted")
	}
}

func TestEffectiveBd(t *testing.T) {
	// Paper: the matmul design consumes one word per 130 MHz cycle:
	// Bd = 1.04 GB/s, below the 2.8 GB/s raw path.
	if got := EffectiveBd(2.8e9, 130e6); math.Abs(got-1.04e9) > 1e3 {
		t.Fatalf("EffectiveBd = %g, want 1.04e9", got)
	}
	// A fast design is capped by the raw path.
	if got := EffectiveBd(2.8e9, 1e9); got != 2.8e9 {
		t.Fatalf("EffectiveBd = %g, want raw cap", got)
	}
}

func TestInstallDesignSetsEffectiveBd(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	a := s.Nodes[0].Accel
	want := EffectiveBd(2.8e9, a.Placed.FreqHz)
	if a.DRAM.BandwidthBytes != want {
		t.Fatalf("accel Bd = %g, want %g", a.DRAM.BandwidthBytes, want)
	}
	// ~1.04 GB/s per the paper.
	if math.Abs(a.DRAM.BandwidthBytes-1.04e9)/1.04e9 > 0.01 {
		t.Fatalf("accel Bd = %g, want ~1.04e9", a.DRAM.BandwidthBytes)
	}
}

func TestInstallDesignRejectsOversize(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(9)); err == nil {
		t.Fatal("9-PE design must not install on XD1")
	}
}

func TestComputeCPUChargesTime(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		n.ComputeCPU(p, cpu.DGEMM, 3.9e9) // exactly one second
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1) > 1e-9 {
		t.Fatalf("run ended at %v, want 1", end)
	}
	if got := s.Nodes[0].CPUBusy.BusySeconds(); math.Abs(got-1) > 1e-9 {
		t.Fatalf("CPU busy %v", got)
	}
}

func TestAcceleratorLaunchOverlapsCPU(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	var cpuDone, bothDone float64
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		a := n.Accel
		// FPGA job: 2 virtual seconds of array time.
		done := a.Launch("fpga-job", "", a.Compute(2*a.Placed.FreqHz))
		// CPU does 1 second of its own work concurrently.
		n.ComputeCPU(p, cpu.DGEMM, 3.9e9)
		cpuDone = p.Now()
		a.AwaitDone(p, done)
		bothDone = p.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(cpuDone-1) > 1e-9 {
		t.Fatalf("cpu done at %v, want 1 (overlap)", cpuDone)
	}
	if math.Abs(bothDone-2) > 1e-9 {
		t.Fatalf("join at %v, want 2", bothDone)
	}
	if got := s.Nodes[0].Accel.Coordinations(); got != 2 {
		t.Fatalf("coordinations = %d, want 2 (start + done)", got)
	}
}

// An array fault hook stretches a job's compute step, evaluated when
// the step starts (after the operand fill), not when the job launches.
func TestAcceleratorComputeDilation(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	a := s.Nodes[0].Accel
	a.SetDilation(func(start, dt float64) float64 { return dt + start })
	var end float64
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		p.Wait(1)
		a.Run(p, "fpga-job", "op", a.WaitOperands(0.5), a.Compute(2*a.Placed.FreqHz))
		end = p.Now()
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Compute starts at 1.5 and is dilated to 2 + 1.5 seconds.
	if math.Abs(end-5) > 1e-9 {
		t.Fatalf("job done at %v, want 5", end)
	}
}

func TestAcceleratorStreamChargesBd(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewMatMul(8)); err != nil {
		t.Fatal(err)
	}
	a := s.Nodes[0].Accel
	bytes := int(a.DRAM.BandwidthBytes) // exactly one second of streaming
	s.Spawn(0, func(p *sim.Proc, r *mpi.Rank, n *Node) {
		a.Run(p, "stream-job", "", a.Stream(bytes))
	})
	end, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(end-1) > 1e-9 {
		t.Fatalf("stream took %v, want 1", end)
	}
}

func TestSpawnAllRanksTalk(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	sum := make([]float64, 6)
	s.SpawnAll(func(p *sim.Proc, r *mpi.Rank, n *Node) {
		sum[r.ID()] = r.Allreduce(1, float64(r.ID()), "sum")
	})
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range sum {
		if v != 15 {
			t.Fatalf("rank %d allreduce = %v", i, v)
		}
	}
}

func TestConfigTime(t *testing.T) {
	s, err := New(XD1())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.InstallDesign(fpga.NewFW(8)); err != nil {
		t.Fatal(err)
	}
	if got := s.Nodes[0].Accel.ConfigTime(); got != 0.05 {
		t.Fatalf("ConfigTime = %v", got)
	}
}

func TestPresetSRAMBandwidth(t *testing.T) {
	for _, cfg := range []Config{XD1(), XT3DRC(), SRC6(), RASC()} {
		if cfg.SRAMBandwidth <= 0 {
			t.Fatalf("%s: no SRAM bandwidth", cfg.Name)
		}
		// SRAM must be faster than the DRAM path on every preset.
		if cfg.SRAMBandwidth <= cfg.RawFPGADRAMBandwidth {
			t.Fatalf("%s: SRAM (%g) not faster than DRAM path (%g)",
				cfg.Name, cfg.SRAMBandwidth, cfg.RawFPGADRAMBandwidth)
		}
	}
}
