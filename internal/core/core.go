package core

import (
	"fmt"

	"codesign/internal/trace"
)

// Mode selects which compute resources a design uses.
type Mode int

// The design variants compared in Figure 9.
const (
	// Hybrid uses both the processor and the FPGA per the design model.
	Hybrid Mode = iota
	// ProcessorOnly is the software baseline (FPGAs idle).
	ProcessorOnly
	// FPGAOnly is the hardware baseline (processors only orchestrate:
	// panel factorizations, communication and DMA remain on the CPU,
	// which cannot be avoided on these systems).
	FPGAOnly
)

// String returns the mode's CLI name.
func (m Mode) String() string {
	switch m {
	case Hybrid:
		return "hybrid"
	case ProcessorOnly:
		return "processor-only"
	case FPGAOnly:
		return "fpga-only"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Result is the outcome of one simulated run.
type Result struct {
	// App is the app-table name ("lu", "fw", "mm", "spmv", "chol",
	// "qr" or "cg"), or "spmm" for a repeated-apply spmv run.
	App string
	// Mode is the design variant.
	Mode Mode
	// N and B are the problem and block sizes.
	N, B int
	// Seconds is the simulated wall time of the whole application.
	Seconds float64
	// GFLOPS is useful work over Seconds.
	GFLOPS float64
	// Flops is the useful floating-point work.
	Flops float64
	// NetworkBytes is total fabric traffic.
	NetworkBytes int64
	// Coordinations is processor<->FPGA handshakes across all nodes.
	Coordinations int64
	// CPUBusy and FPGABusy are per-node busy seconds.
	CPUBusy, FPGABusy []float64
	// MaxResidual is the largest deviation of the functional result
	// from the sequential reference (0 when Functional is off).
	MaxResidual float64
	// Checked reports whether a functional comparison was performed.
	Checked bool
	// Telemetry is the structured span digest of the run — per-process
	// utilization, bytes moved, and the overlap decomposition against
	// the model's Tp/Tf/Tmem/Tcomm terms. Nil unless the run's config
	// enabled Telemetry.
	Telemetry *trace.Summary
	// Repartitions lists every mid-run re-solve of the partition
	// equations a fault injector triggered, in order. Empty without
	// fault injection.
	Repartitions []Repartition
	// DeadNodes lists the nodes lost to injected kill faults by the end
	// of the run, in node order. Empty without fault injection.
	DeadNodes []int
}

// Utilization returns mean busy fraction of the given per-node series.
func (r *Result) Utilization(busy []float64) float64 {
	if r.Seconds <= 0 || len(busy) == 0 {
		return 0
	}
	var s float64
	for _, b := range busy {
		s += b
	}
	return s / (float64(len(busy)) * r.Seconds)
}
