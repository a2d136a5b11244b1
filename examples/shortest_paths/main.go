// All-pairs shortest paths on the simulated reconfigurable cluster:
// run the distributed blocked Floyd-Warshall design functionally on a
// random directed graph, check the distances against the sequential
// reference bit for bit, and compare the three design variants.
package main

import (
	"fmt"
	"log"
	"os"

	"codesign"
)

func main() {
	// A 288-vertex graph in 48x48 blocks (one block column per node).
	fmt.Println("Distributed blocked Floyd-Warshall (n=288, b=48, 6 nodes):")
	mismatch := false
	for _, mode := range []codesign.Mode{codesign.Hybrid, codesign.ProcessorOnly, codesign.FPGAOnly} {
		res, err := codesign.RunFW(codesign.FWConfig{
			N: 288, B: 48, PEs: 4, L1: -1,
			Mode:       mode,
			Functional: true,
			Seed:       7,
			Density:    0.25,
		})
		if err != nil {
			log.Fatal(err)
		}
		status := "bit-exact"
		if res.MaxResidual != 0 {
			status = fmt.Sprintf("MISMATCH %.3g", res.MaxResidual)
			mismatch = true
		}
		fmt.Printf("  %-15s l1=%d l2=%d  simulated %7.3f s  result %s\n",
			mode, res.L1, res.L2, res.Seconds, status)
	}

	// Paper-scale timing: the whole-task split l1:l2 = 2:10 that
	// Equation (6) derives for the XD1.
	res, err := codesign.RunFW(codesign.FWConfig{
		N: 18432, B: 256, L1: -1, Mode: codesign.Hybrid,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPaper scale (n=18432, b=256): l1=%d l2=%d, %.2f GFLOPS (paper: 6.6)\n",
		res.L1, res.L2, res.GFLOPS)
	fmt.Printf("achieved %.0f%% of the model's prediction (paper: ~96%%)\n",
		100*res.GFLOPS/res.Prediction.GFLOPS)
	if mismatch {
		os.Exit(1)
	}
}
