package core

import (
	"fmt"
	"math"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// CGConfig configures a hybrid conjugate-gradient solve — the related
// work the paper contrasts itself with (Morris et al. [9], an
// FPGA-augmented CG on an SRC reconfigurable computer) rebuilt with
// this repository's co-design model. The operator apply (matrix-vector
// product) is split row-wise between processor and FPGA per Equation
// (1); the matrix's FPGA share is loaded into on-board SRAM once and
// streamed from there every iteration, while the O(n) vector kernels
// stay on the processor. Single node, as in [9].
type CGConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis
	// (only node 0 is used).
	Machine machine.Config
	// N is the system size.
	N int
	// Density selects the operator: 0 means dense SPD; otherwise a
	// sparse SPD matrix with the given off-diagonal density.
	Density float64
	// PEs is the MV design size; 0 means the largest that fits.
	PEs int
	// RowsFPGA is the FPGA's row share; -1 solves the Equation (1)
	// balance (with the SRAM capacity clamp).
	RowsFPGA int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Seed drives input generation. CG is always functional: the
	// iteration count is a property of the data.
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span digest — utilization, bytes moved, and
	// the Tp/Tf/Tmem/Tcomm overlap decomposition — to the result.
	Telemetry bool
}

// CGRunResult reports a hybrid CG solve.
type CGRunResult struct {
	Result
	// RowsFPGA and RowsCPU are the resolved row split; K is the MV
	// design's MAC lane count.
	RowsFPGA, RowsCPU, K int
	// Iterations is the number of CG iterations run.
	Iterations int
	// Converged reports whether the residual reached the tolerance
	// within the iteration cap.
	Converged bool
	// Residual is the final relative residual.
	Residual float64
	// LoadSeconds is the one-time cost of staging the FPGA's matrix
	// share into SRAM over the DRAM path.
	LoadSeconds float64
}

// cgTol is the solve's relative residual tolerance; the iteration cap
// is n.
const cgTol = 1e-10

// RunCG builds the machine, solves the row split, runs the solve on the
// simulated node and verifies the iterates against the sequential
// reference.
func RunCG(cfg CGConfig) (*CGRunResult, error) {
	return runCG(Spec{Machine: cfg.Machine, N: cfg.N, PEs: cfg.PEs, BF: cfg.RowsFPGA, Mode: cfg.Mode,
		Seed: cfg.Seed, Observer: cfg.Observer, Telemetry: cfg.Telemetry}, cfg.Density)
}

// runCG is RunCG on a Spec, with the operator density beside it
// (Spec.Density is spmv's; the app table runs cg dense).
func runCG(s Spec, density float64) (*CGRunResult, error) {
	h, err := cgPlan.start(s)
	if err != nil {
		return nil, err
	}
	s, sys := h.Spec, h.sys
	k, maxIter := h.Split.K, s.N
	node := sys.Nodes[0]
	accel := node.Accel

	// Build the operator and the reference solve.
	rng := rand.New(rand.NewSource(s.Seed))
	var op matrix.MulVec
	var rowWords func(lo, hi int) int // matrix words in rows [lo,hi)
	nnz := s.N * s.N
	if density > 0 {
		sp := matrix.RandomSparseSPD(s.N, density, rng)
		op = sp
		nnz = sp.NNZ()
		// CSR streams value+column index per non-zero (~1.5 words,
		// rounded up so the SRAM clamp and DMA byte counts never
		// under-charge odd nonzero counts).
		rowWords = func(lo, hi int) int { return model.CSRStreamWords(sp.RangeNNZ(lo, hi)) }
	} else {
		a := matrix.RandomSPD(s.N, rng)
		op = matrix.DenseOp{A: a}
		rowWords = func(lo, hi int) int { return (hi - lo) * s.N }
	}
	b := make([]float64, s.N)
	for i := range b {
		b[i] = 2*rng.Float64() - 1
	}
	ref := matrix.CG(op, b, cgTol, maxIter)

	// Row split per Equation (1), via the shared MV cost model in its
	// resident arrangement: the FPGA's matrix share is loaded into SRAM
	// once over Bd, so the per-apply balance has no Tmem term and the
	// FPGA word rate is the slower of the MAC array and the SRAM port.
	mvp := mvParams(&h.Plan, mvLoad{words: rowWords(0, s.N), nnz: nnz, sparse: density > 0,
		applies: maxIter, resident: true, vecFlops: 10 * float64(s.N)})
	fpgaPerWord := mvp.FPGAPerWord()
	cpuPerWord := mvp.CPUPerWord()
	rf, err := share(s.Mode, "rowsFPGA", s.BF, s.N, false, func() int {
		rf, _ := mvp.SolvePartition()
		return rf
	})
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	rf = clampResident(rf, sramWords(s.Machine), rowWords)

	fpgaWords := rowWords(0, rf)
	fpgaApply := float64(fpgaWords) * fpgaPerWord
	cpuApply := float64(rowWords(rf, s.N)) * cpuPerWord

	// The solve, mirroring matrix.CG step for step with the operator
	// apply split across the two resources.
	x := make([]float64, s.N)
	r := make([]float64, s.N)
	copy(r, b)
	pv := make([]float64, s.N)
	copy(pv, r)
	q := make([]float64, s.N)
	bnorm := matrix.Norm2(b)
	rr := matrix.Dot(r, r)

	res := &CGRunResult{RowsFPGA: rf, RowsCPU: s.N - rf, K: k}
	var loadDone float64
	sys.Eng.Go("cg.cpu", func(pr *sim.Proc) {
		// One-time SRAM load of the FPGA's matrix share over Bd.
		if rf > 0 {
			pr.SetPhase("load")
			accel.Run(pr, "cg.load", "load", accel.Stream(fpgaWords*machine.WordBytes))
			pr.SetPhase("")
		}
		loadDone = pr.Now()
		if bnorm == 0 {
			res.Converged = true
			return
		}
		for it := 0; it < maxIter; it++ {
			// q = A·p, split by rows.
			var done *sim.Signal
			if rf > 0 {
				done = accel.Launch(fmt.Sprintf("cg.mv.%d", it), "apply",
					accel.Compute(fpgaApply*accel.Placed.FreqHz))
			}
			if rf < s.N {
				pr.SetPhase("apply")
				node.ChargeCPU(pr, sim.CatCompute, 0, cpuApply)
				pr.SetPhase("")
			}
			applyOpSplit(op, pv, q, rf)
			if done != nil {
				accel.AwaitDone(pr, done)
			}
			// Vector kernels on the processor.
			node.ComputeCPU(pr, cpu.VectorOp, 10*float64(s.N))
			pq := matrix.Dot(pv, q)
			if pq <= 0 {
				// Breakdown on a non-positive curvature; matrix.CG stops
				// at the same point, keeping the runs in lockstep.
				break
			}
			alpha := rr / pq
			matrix.Axpy(alpha, pv, x)
			matrix.Axpy(-alpha, q, r)
			rrNew := matrix.Dot(r, r)
			res.Iterations = it + 1
			if math.Sqrt(rrNew) <= cgTol*bnorm {
				res.Converged = true
				rr = rrNew
				break
			}
			beta := rrNew / rr
			for i := range pv {
				pv[i] = r[i] + beta*pv[i]
			}
			rr = rrNew
		}
		res.Residual = math.Sqrt(rr)
	})

	// Both solves run the same operations in the same order, so a
	// successful run's flops follow from the reference's iterations.
	res.Result, err = h.finish(0, float64(ref.Iterations)*(2*float64(nnz)+10*float64(s.N)))
	if err != nil {
		return nil, err
	}

	// Verify against the sequential reference: identical operations in
	// identical order, so the iterates are bit-identical.
	var maxDiff float64
	for i := range x {
		if d := math.Abs(x[i] - ref.X[i]); d > maxDiff {
			maxDiff = d
		}
	}
	if res.Iterations != ref.Iterations || res.Converged != ref.Converged {
		return nil, fmt.Errorf("core: cg diverged from reference: %d/%v vs %d/%v",
			res.Iterations, res.Converged, ref.Iterations, ref.Converged)
	}
	res.MaxResidual, res.Checked = maxDiff, true
	res.LoadSeconds = loadDone
	return res, nil
}

// applyOpSplit computes q = A·p with rows [0,rf) notionally on the FPGA
// and the rest on the processor — the arithmetic is identical, so one
// pass through the row-partitioned kernels suffices.
func applyOpSplit(op matrix.MulVec, p, q []float64, rf int) {
	switch o := op.(type) {
	case matrix.DenseOp:
		matrix.MatVecRange(o.A, p, q, 0, rf)
		matrix.MatVecRange(o.A, p, q, rf, len(q))
	case *matrix.CSR:
		o.ApplyRange(p, q, 0, rf)
		o.ApplyRange(p, q, rf, len(q))
	default:
		op.Apply(p, q)
	}
}
