package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// CholConfig configures a distributed block Cholesky factorization —
// the extension application the paper's conclusion points at ("extend
// the proposed model to a broader range of applications") and the third
// routine of the ScaLAPACK set it builds on [10]. The design mirrors
// the LU co-design: the panel node factors the diagonal block (opPOTRF,
// with the square-root unit's datapath) and solves the panel (opTRSM);
// the trailing symmetric update is split row-wise between processor and
// FPGA on the other p-1 nodes, with only the lower triangle's blocks
// computed (opSYRK on the diagonal, opGEMM below it).
type CholConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the matrix size, B the block size (multiple of PEs and p-1).
	N, B int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA row share per stripe; -1 solves Equation (4).
	BF int
	// L is the panel pipeline depth; -1 solves Equation (5).
	L int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional factors a real SPD matrix and checks L·Lᵀ = A.
	Functional bool
	// Seed drives functional input generation.
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span digest — utilization, bytes moved, and
	// the Tp/Tf/Tmem/Tcomm overlap decomposition — to the result.
	Telemetry bool
}

// CholResult extends Result with the Cholesky-specific configuration.
type CholResult struct {
	Result
	// BF and BP are the resolved FPGA/processor row split per stripe,
	// L the panel pipeline depth and K the PE count.
	BF, BP, L, K int
	// Model is the cost-model instance behind the partition.
	Model model.LUParams
	// Prediction is the Section 4.5 forecast, scaled to Cholesky's
	// flop count.
	Prediction model.Prediction
}

// cholKernel is the Cholesky panel and update on the block
// factorization driver: opPOTRF (a third of opLU's flops), then opTRSM
// down the panel; job (u, v), v <= u, is the lower-triangle update
// A_uv -= L_u,t · (L_v,t)ᵀ, a symmetric SYRK on the diagonal.
var cholKernel = blockKernel{
	name: "chol",
	jobs: func(rem int) int { return rem * (rem + 1) / 2 },
	panel: func(q *panelQueue) {
		lr, pr, node, t, b := q.lr, q.pr, q.node, q.t, q.lr.s.B
		// opPOTRF: (1/3)b³ flops at the factorization routine rate.
		node.ComputeCPU(pr, cpu.DGETRF, cpu.DgetrfFlops(b)/2)
		if lr.a != nil {
			if err := matrix.Cholesky(lr.blk(t, t)); err != nil {
				panic(fmt.Sprintf("opPOTRF iteration %d: %v", t, err))
			}
		}
		for u := t + 1; u < lr.nb; u++ {
			// opTRSM on panel block (u, t).
			node.ComputeCPU(pr, cpu.DTRSM, cpu.DtrsmFlops(b))
			if lr.a != nil {
				matrix.TrsmRightLowerT(lr.blk(t, t), lr.blk(u, t))
			}
			// Jobs (u, v) for v <= u are now ready.
			for v := t + 1; v <= u; v++ {
				q.add(u, v, u == v)
			}
			q.send(lr.l)
		}
	},
	// The slice of (L_v,t)ᵀ is the transpose of L_v,t's rows col..col+w.
	operand: func(lr *luRun, j *luJob, col, w int) *matrix.Dense {
		return lr.blk(j.v, j.t).View(col, 0, w, lr.s.B).Transpose()
	},
	opms: func(lr *luRun, j *luJob) {
		if j.sym {
			// Diagonal: symmetric rank-b update, lower only.
			matrix.Syrk(lr.blk(j.u, j.t), lr.blk(j.u, j.u))
		} else {
			lr.blk(j.u, j.v).Sub(j.e)
		}
	},
}

// RunCholesky simulates the distributed factorization.
func RunCholesky(cfg CholConfig) (*CholResult, error) {
	return runCholesky(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, BF: cfg.BF, L: cfg.L,
		Mode: cfg.Mode, Functional: cfg.Functional, Seed: cfg.Seed, Observer: cfg.Observer, Telemetry: cfg.Telemetry})
}

// runCholesky is RunCholesky on a Spec.
func runCholesky(s Spec) (*CholResult, error) {
	h, err := cholPlan.start(s)
	if err != nil {
		return nil, err
	}
	s = h.Spec
	lr, err := newLURun(h, &cholKernel, luAblation{})
	if err != nil {
		return nil, err
	}

	var ref *matrix.Dense
	if s.Functional {
		rng := rand.New(rand.NewSource(s.Seed))
		lr.a = matrix.RandomSPD(s.N, rng)
		ref = lr.a.Clone()
		if err := matrix.BlockCholesky(ref, s.B); err != nil {
			return nil, fmt.Errorf("core: reference factorization: %w", err)
		}
	}

	n := float64(s.N)
	r, _, err := lr.execute(h, n*n*n/3)
	if err != nil {
		return nil, err
	}
	res := &CholResult{Result: r, BF: lr.bf, BP: lr.bp, L: lr.l, K: h.Split.K, Model: lr.lp, Prediction: h.Prediction}
	if s.Functional && ref != nil {
		res.Checked = true
		res.MaxResidual = matrix.ExtractLower(lr.a).MaxDiff(matrix.ExtractLower(ref))
	}
	return res, nil
}
