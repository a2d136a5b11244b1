package core

import (
	"fmt"
	"math"
	"math/rand"

	"codesign/internal/fault"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// SpMVConfig configures a hybrid sparse matrix-vector multiply — the
// sparse workload family the ROADMAP names after Soltaniyeh & Martin's
// CPU/FPGA split for sparse linear algebra. The operator's rows are
// partitioned between processor and FPGA per Equation (1); the FPGA
// share streams through the accelerator in CSR form (value + column
// index, ~1.5 words per nonzero), so the DRAM path Bd — not compute —
// is the term that usually binds. Single node, like the CG extension.
type SpMVConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis
	// (only node 0 is used).
	Machine machine.Config
	// N is the operator dimension.
	N int
	// Density selects the operator: 0 means a dense matrix (the DGEMV
	// regime); otherwise a CSR matrix with the given off-diagonal
	// density.
	Density float64
	// RHS is the number of repeated applies for RunSpMM; RunSpMV
	// ignores it. 0 means 32.
	RHS int
	// PEs is the MV design size; 0 means the largest that fits.
	PEs int
	// RowsFPGA is the FPGA's row share; -1 solves the Equation (1)
	// balance.
	RowsFPGA int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Seed drives input generation. SpMV is always functional: every
	// apply is verified against matrix.CSR.Apply (or the dense MatVec).
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span digest — utilization, bytes moved, and
	// the Tp/Tf/Tmem/Tcomm overlap decomposition — to the result.
	Telemetry bool
	// Faults, when non-nil, is installed into every charging path of
	// the machine (see machine.System.InstallFaults). SpMV has no
	// mid-run repartitioning and its arithmetic is timing-independent,
	// so functional verification stays on; node kills are rejected
	// because the workload runs on a single node.
	Faults *fault.Injector
}

// SpMVResult reports a hybrid SpMV/SpMM run.
type SpMVResult struct {
	Result
	// RowsFPGA and RowsCPU are the solved (or forced) row split; K is
	// the MV design's MAC lane count.
	RowsFPGA, RowsCPU, K int
	// NNZ is the operator's stored entry count (n² for dense).
	NNZ int
	// Words is the operator's total stream footprint in 64-bit words.
	Words int
	// Applies is the number of operator applications performed.
	Applies int
	// Resident reports the arrangement: true when the FPGA share was
	// loaded into SRAM once (repeated applies that fit), false when it
	// re-streamed from DRAM on every apply.
	Resident bool
	// Model is the cost-model instance behind the partition.
	Model model.SpMVParams
	// Prediction is the Section 4.5 closed-form forecast at the split.
	Prediction model.Prediction
	// LoadSeconds is the one-time SRAM staging cost (resident only).
	LoadSeconds float64
}

// RunSpMV builds the machine, solves the row split, and simulates one
// streamed operator apply, verifying the result against the sequential
// reference apply.
func RunSpMV(cfg SpMVConfig) (*SpMVResult, error) {
	cfg.RHS = 1
	return runMV(cfg.spec())
}

// RunSpMM repeatedly applies the operator (cfg.RHS right-hand sides,
// default 32) as iterative solvers and block methods do. When the FPGA
// share fits in on-board SRAM it is loaded once and re-used across
// applies (the CG arrangement); otherwise every apply re-streams the
// share from DRAM.
func RunSpMM(cfg SpMVConfig) (*SpMVResult, error) {
	if cfg.RHS <= 0 {
		cfg.RHS = 32
	}
	return runMV(cfg.spec())
}

// spec converts the config; RHS is the apply count.
func (cfg SpMVConfig) spec() Spec {
	return Spec{Machine: cfg.Machine, N: cfg.N, Density: cfg.Density, RHS: cfg.RHS, PEs: cfg.PEs,
		BF: cfg.RowsFPGA, Mode: cfg.Mode, Seed: cfg.Seed, Observer: cfg.Observer,
		Telemetry: cfg.Telemetry, Faults: cfg.Faults}
}

// runMV applies the operator s.RHS times (at least once).
func runMV(s Spec) (*SpMVResult, error) {
	h, err := spmvPlan.start(s)
	if err != nil {
		return nil, err
	}
	s, sys := h.Spec, h.sys
	applies := max(s.RHS, 1)
	k := h.Split.K
	node := sys.Nodes[0]
	accel := node.Accel
	mvp, rf := h.MV, h.Split.BF
	resident := mvp.Resident

	// Build the operator the plan priced.
	rng := rand.New(rand.NewSource(s.Seed))
	var op matrix.MulVec
	var rowWords func(lo, hi int) int
	var nnz int
	if s.Density > 0 {
		sp := matrix.RandomSparse(s.N, s.Density, rng)
		op = sp
		nnz = sp.NNZ()
		rowWords = func(lo, hi int) int { return model.CSRStreamWords(sp.RangeNNZ(lo, hi)) }
	} else {
		a := matrix.Random(s.N, s.N, rng)
		op = matrix.DenseOp{A: a}
		nnz = s.N * s.N
		rowWords = func(lo, hi int) int { return (hi - lo) * s.N }
	}
	totalWords := rowWords(0, s.N)
	if totalWords != mvp.Words {
		return nil, fmt.Errorf("core: spmv operator streams %d words, its plan priced %d", totalWords, mvp.Words)
	}
	flops := mvp.Flops

	fpgaWords := rowWords(0, rf)
	fpgaPerWord := mvp.FPGAPerWord()
	cpuPerWord := mvp.CPUPerWord()
	streamPerWord := mvp.StreamPerWord()

	// Pipeline granularity for the streamed arrangement: the share
	// moves in row chunks so DMA and MAC-array compute overlap.
	chunkRows := 64 * k
	phase := "stream"
	if resident {
		phase = "apply"
	}

	// Functional state: a repeated-apply (power) chain, normalized each
	// step, run identically through the split kernels and the reference.
	x := make([]float64, s.N)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	y := make([]float64, s.N)
	yRef := make([]float64, s.N)

	res := &SpMVResult{RowsFPGA: rf, RowsCPU: s.N - rf, K: k,
		NNZ: nnz, Words: totalWords, Applies: applies, Resident: resident}
	var maxDiff, loadDone float64
	sys.Eng.Go("spmv.cpu", func(pr *sim.Proc) {
		if resident && rf > 0 {
			pr.SetPhase("load")
			accel.Run(pr, "spmv.load", "load", accel.Stream(fpgaWords*machine.WordBytes))
			pr.SetPhase("")
			loadDone = pr.Now()
		}
		for a := 0; a < applies; a++ {
			var done *sim.Signal
			if rf > 0 {
				if resident {
					done = accel.Launch(fmt.Sprintf("spmv.mv.%d", a), phase,
						accel.Compute(float64(fpgaWords)*fpgaPerWord*accel.Placed.FreqHz))
				} else {
					// The array takes each chunk from the queue the
					// processor's DMA fills, and computes it.
					fq := sim.NewMailbox(sys.Eng, fmt.Sprintf("spmv.fq.%d", a))
					done = accel.LaunchCursor(fmt.Sprintf("spmv.mv.%d", a), phase, func(i int) (sim.Step, bool) {
						lo := i * chunkRows
						if lo >= rf {
							return sim.Step{}, false
						}
						s := accel.Compute(float64(rowWords(lo, min(lo+chunkRows, rf))) / float64(k))
						s.Recv = fq
						return s, true
					})
					pr.SetPhase(phase)
					for lo := 0; lo < rf; lo += chunkRows {
						hi := lo + chunkRows
						if hi > rf {
							hi = rf
						}
						words := rowWords(lo, hi)
						node.ChargeCPU(pr, sim.CatDMA, int64(words)*machine.WordBytes,
							float64(words)*streamPerWord)
						fq.Put(lo)
					}
					pr.SetPhase("")
				}
			}
			if rf < s.N {
				pr.SetPhase(phase)
				node.ChargeCPU(pr, sim.CatCompute, 0, float64(rowWords(rf, s.N))*cpuPerWord)
				pr.SetPhase("")
			}
			applyOpSplit(op, x, y, rf)
			op.Apply(x, yRef)
			for i := range y {
				if d := math.Abs(y[i] - yRef[i]); d > maxDiff {
					maxDiff = d
				}
			}
			if done != nil {
				accel.AwaitDone(pr, done)
			}
			if a+1 < applies {
				// Next right-hand side: the normalized image, so the
				// chain stays bounded and every apply sees fresh data.
				if n2 := matrix.Norm2(y); n2 > 0 {
					for i := range x {
						x[i] = y[i] / n2
					}
				} else {
					copy(x, y)
				}
			}
		}
	})

	res.Result, err = h.finish(k, flops)
	if err != nil {
		return nil, err
	}
	if applies > 1 {
		res.App = "spmm"
	}
	res.MaxResidual, res.Checked = maxDiff, true
	res.Model = mvp
	res.Prediction = h.Prediction
	res.LoadSeconds = loadDone
	return res, nil
}
