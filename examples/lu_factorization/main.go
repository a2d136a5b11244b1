// Functional distributed LU factorization: carry a real matrix through
// the simulated machine — every panel factorization, triangular solve,
// stripe transfer and block multiply actually computes — and verify the
// distributed result against the sequential blocked reference.
//
// This is the "execution-driven" mode of the simulator: the same
// schedule that produces the timing numbers also produces the numbers
// in the matrix, so correctness of the co-designed schedule (dependency
// ordering, read-after-write coordination of Section 4.4) is testable.
package main

import (
	"fmt"
	"log"
	"os"

	"codesign"
)

func main() {
	// A 500x500 matrix in 100x100 blocks across 6 simulated nodes. The
	// block size must be a multiple of both the PE count and p-1.
	cfg := codesign.LUConfig{
		N: 500, B: 100, PEs: 4,
		BF: -1, L: -1,
		Mode:       codesign.Hybrid,
		Functional: true,
		Seed:       42,
	}
	fmt.Println("Functional distributed block LU (n=500, b=100, 6 nodes):")
	mismatch := false
	for _, mode := range []codesign.Mode{codesign.Hybrid, codesign.ProcessorOnly, codesign.FPGAOnly} {
		cfg.Mode = mode
		res, err := codesign.RunLU(cfg)
		if err != nil {
			log.Fatal(err)
		}
		status := "OK"
		if res.MaxResidual > 1e-8 {
			status = "MISMATCH"
			mismatch = true
		}
		fmt.Printf("  %-15s simulated %8.3f s, residual vs reference %.3g  [%s]\n",
			mode, res.Seconds, res.MaxResidual, status)
	}

	// The partition adapts to the machine: with tiny SRAM banks the
	// FPGA cannot hold its intermediate C rows, so the model clamps bf
	// to what fits (the capacity constraint of Section 6.1).
	xd1 := codesign.MachineXD1()
	small := codesign.MachineXD1()
	small.Name = "XD1 with 4x1MB SRAM banks"
	small.SRAMBankBytes = 1 << 20
	for _, mc := range []codesign.MachineConfig{xd1, small} {
		res, err := codesign.RunLU(codesign.LUConfig{
			Machine: mc, N: 30000, B: 3000, BF: -1, L: -1, Mode: codesign.Hybrid,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-35s -> bf=%d, %.2f GFLOPS\n", mc.Name, res.BF, res.GFLOPS)
	}
	if mismatch {
		os.Exit(1)
	}
}
