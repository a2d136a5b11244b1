// Package core implements the paper's hybrid designs (Section 5): the
// distributed block LU decomposition (Section 5.1, partitioned by
// Equations 4 and 5) and the distributed blocked Floyd-Warshall
// algorithm (Section 5.2, split by Equation 6), each in three
// variants — Hybrid (processor + FPGA per the co-design model),
// ProcessorOnly and FPGAOnly (the two baselines of Section 6.2) —
// executing on a simulated reconfigurable computing system built by
// internal/machine. The extension applications the paper's conclusion
// calls for ride on the same engine: hybrid matrix multiplication
// (the pure Equation 1 case), Cholesky, Householder QR and conjugate
// gradient.
//
// Each app's entry in the app table (app.go) has a plan stage
// (plan.go): the PE count, placement, model parameters, partition and
// Section 4.5 prediction, resolved once. Every Run* simulates its plan,
// and the sweep and serve layers read their closed-form model path
// from the same plan. The run stage (run.go) builds the machine,
// attaches tracing and telemetry, installs the design, applies the
// app's fault policy and fills the common Result, once for every Run*.
//
// LU and Cholesky share one block-factorization driver (luRun in
// lu.go): the node loop, mailboxes, send pipeline, compute loop,
// scatter and opMS are written once, and each factorization is a
// blockKernel giving its panel body, job count and functional update.
// Every hybrid job — lu, chol, qr and fw — launches its FPGA share and
// charges its CPU share through one jobCharge.run.
//
// Every run is a discrete-event simulation of the full distributed
// schedule: panel factorizations, stripe broadcasts, DRAM streaming,
// FPGA jobs, result scatters and subtractions all occur as events whose
// durations come from the machine model. With Functional enabled the
// events also carry real matrices through the real kernels, so the
// distributed result can be checked against the sequential references
// in internal/matrix.
package core
