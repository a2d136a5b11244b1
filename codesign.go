// Package codesign is the public API of a full reproduction of
// "Hardware/Software Co-Design for Matrix Computations on Reconfigurable
// Computing Systems" (Zhuo & Prasanna, IPDPS 2007).
//
// It bundles three layers:
//
//   - The design model (Section 4): system parameters, the workload
//     partition solvers of Equations (1)-(6) and the Section 4.5
//     performance predictor. See LUModel / FWModel.
//
//   - A simulated reconfigurable computing system: p nodes of
//     processor + FPGA + DRAM + SRAM on a crossbar fabric, driven by a
//     deterministic discrete-event engine. See MachineXD1 and
//     MachineXT3DRC.
//
//   - The co-designed applications with their baselines: the paper's
//     distributed block LU decomposition and blocked Floyd-Warshall
//     (Section 5), plus the extensions its conclusion calls for —
//     Cholesky, hybrid matrix multiplication, Householder QR, conjugate
//     gradient and sparse matrix-vector products. All run timing-only at
//     paper scale or carry real matrices (Functional) with results
//     checked against sequential references. RunLU, RunFW and
//     RunCholesky take per-app configs; Simulate runs any app of the
//     table (AppNames) from one app-independent Spec.
//
// Quick start:
//
//	res, err := codesign.RunLU(codesign.LUConfig{
//		N: 30000, B: 3000, BF: -1, L: -1, Mode: codesign.Hybrid,
//	})
//	// res.GFLOPS ≈ 18-20 on the simulated XD1 chassis; res.BF == 1280.
//
// The paper's tables and figures regenerate through cmd/experiments;
// sweeps, fault injection, run diffs and the design service are the
// cmd/sweep, cmd/hybridsim, cmd/tracediff and cmd/codesignd tools.
package codesign

import (
	"codesign/internal/core"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/trace"
)

// Design-variant modes (Figure 9).
const (
	// Hybrid splits every task between processor and FPGA.
	Hybrid = core.Hybrid
	// ProcessorOnly is the software baseline.
	ProcessorOnly = core.ProcessorOnly
	// FPGAOnly is the accelerator baseline.
	FPGAOnly = core.FPGAOnly
)

// Configuration, result and model types.
type (
	// Mode selects hybrid or a baseline design.
	Mode = core.Mode
	// LUConfig configures a distributed block LU run.
	LUConfig = core.LUConfig
	// LUResult is the outcome of a block LU run.
	LUResult = core.LUResult
	// FWConfig configures a distributed Floyd-Warshall run.
	FWConfig = core.FWConfig
	// FWResult is the outcome of a Floyd-Warshall run.
	FWResult = core.FWResult
	// CholConfig configures a hybrid Cholesky factorization run (the
	// ScaLAPACK-trio extension application).
	CholConfig = core.CholConfig
	// CholResult is the outcome of a hybrid Cholesky run.
	CholResult = core.CholResult
	// MachineConfig describes a reconfigurable computing system.
	MachineConfig = machine.Config
	// ModelParams are the raw Section 4.1 system parameters (Eqs. 1-2).
	ModelParams = model.Params
	// LUModel instantiates the design model for block LU (Eqs. 4-5).
	LUModel = model.LUParams
	// FWModel instantiates the design model for Floyd-Warshall (Eq. 6).
	FWModel = model.FWParams
	// Recorder buffers a run's typed spans. Pass it as a config's
	// Observer; it exports Perfetto JSON (WritePerfetto), CSV
	// (WriteSpansCSV) and a utilization digest (Summarize).
	Recorder = trace.Recorder
)

// Machine presets (Section 3).
var (
	// MachineXD1 is one Cray XD1 chassis: the paper's testbed.
	MachineXD1 = machine.XD1
	// MachineXT3DRC is a Cray XT3 partition with DRC Virtex-4 modules.
	MachineXT3DRC = machine.XT3DRC
)

// NewRecorder returns an empty span recorder ready to pass as a config
// Observer.
func NewRecorder() *Recorder { return trace.NewRecorder() }

// RunLU simulates the distributed block LU decomposition of Section 5.1
// on the configured machine and returns measured throughput, the
// derived partition (bf/bp/l) and the model prediction.
func RunLU(cfg LUConfig) (*LUResult, error) { return core.RunLU(cfg) }

// RunFW simulates the distributed blocked Floyd-Warshall algorithm of
// Section 5.2.
func RunFW(cfg FWConfig) (*FWResult, error) { return core.RunFW(cfg) }

// RunCholesky simulates the distributed hybrid Cholesky factorization
// extension (same co-design engine as LU, half the flops, square-root
// unit on the panel datapath).
func RunCholesky(cfg CholConfig) (*CholResult, error) { return core.RunCholesky(cfg) }

// The application table: one entry per simulated workload (lu, fw, mm,
// spmv, chol, qr, cg), each run from the same app-independent Spec.
// It is the one public path to the extensions without a Run* above.
type (
	// Spec describes one simulated run of any app: machine, sizes,
	// partition (-1 solves the model), mode and telemetry. Each app
	// reads the fields it uses and ignores the rest.
	Spec = core.Spec
	// AppRun is the outcome of Simulate: the app-independent result,
	// the model prediction at the resolved split, the split itself and
	// the app's report lines.
	AppRun = core.AppRun
)

// AppNames returns the table's app names in report order.
func AppNames() []string { return core.AppNames() }

// Simulate runs the named app of the table as configured by s.
func Simulate(name string, s Spec) (*AppRun, error) { return core.Simulate(name, s) }
