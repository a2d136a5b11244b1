package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/fault"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/sim"
)

// MMConfig configures a distributed hybrid matrix multiplication run —
// the extension application from the authors' earlier hybrid work [22]
// and the pure Equation (1) case of the design model: C = A·B with the
// result columns split across nodes and, within each node, the result
// rows of every k-column stripe split between processor and FPGA. No
// network communication: operands are resident per node, so the
// partition balances only compute and DRAM streaming.
type MMConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the matrix size (multiple of both the PE count and p).
	N int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA result-row share per stripe; -1 solves Eq. (1).
	BF int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional multiplies real matrices and verifies the result.
	Functional bool
	// Seed drives functional input generation.
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span digest — utilization, bytes moved, and
	// the Tp/Tf/Tmem/Tcomm overlap decomposition — to the result.
	Telemetry bool
	// Faults, when non-nil, is installed into every charging path of
	// the machine (see machine.System.InstallFaults); incompatible with
	// Functional. MM has no degraded mode: faults dilate the charges
	// but the partition stays fixed.
	Faults *fault.Injector
}

// MMResult extends Result with the multiply-specific configuration.
type MMResult struct {
	Result
	// BF and BP are the resolved FPGA/processor result rows per
	// stripe; K is the PE count.
	BF, BP, K int
	// Model is the cost-model instance behind the partition.
	Model model.MMParams
	// Prediction is the Section 4.5 forecast at the partition.
	Prediction model.Prediction
}

// RunMM builds the machine and simulates the stripe-pipelined multiply.
func RunMM(cfg MMConfig) (*MMResult, error) {
	return runMM(Spec{Machine: cfg.Machine, N: cfg.N, PEs: cfg.PEs, BF: cfg.BF, Mode: cfg.Mode,
		Functional: cfg.Functional, Seed: cfg.Seed, Observer: cfg.Observer, Telemetry: cfg.Telemetry,
		Faults: cfg.Faults})
}

// runMM is RunMM on a Spec.
func runMM(s Spec) (*MMResult, error) {
	h, err := mmPlan.start(s)
	if err != nil {
		return nil, err
	}
	s, sys := h.Spec, h.sys
	p := s.Machine.Nodes
	mp, bf, k := h.MM, h.Split.BF, h.Split.K

	_, tp, tmem := mp.StripeTimes(bf)
	stripes := s.N / k
	w := mp.Width()
	fpgaStripeCycles := float64(bf) * float64(w)

	// Functional state.
	var a, b, c, ref *matrix.Dense
	if s.Functional {
		rng := rand.New(rand.NewSource(s.Seed))
		a = matrix.Random(s.N, s.N, rng)
		b = matrix.Random(s.N, s.N, rng)
		c = matrix.New(s.N, s.N)
		ref = matrix.Mul(a, b)
	}

	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		var fpgaDone *sim.Signal
		fq := sim.NewMailbox(sys.Eng, fmt.Sprintf("mm.fq%d", me))
		if bf > 0 {
			acc := node.Accel
			fpgaDone = acc.LaunchProc(fmt.Sprintf("mm.fpga%d", me), func(fp *sim.Proc) {
				fp.SetPhase("stripe")
				for st := 0; st < stripes; st++ {
					fq.Get(fp)
					fp.Do(acc.Compute(fpgaStripeCycles))
				}
			})
		}
		// Per-stripe DMA volume: the FPGA's bf·k operand words plus the
		// k·w result words behind the model's Tmem term.
		stripeDMABytes := int64(bf*k+k*w) * machine.WordBytes
		sys.Eng.Go(fmt.Sprintf("mm.cpu%d", me), func(pr *sim.Proc) {
			pr.SetPhase("stripe")
			for st := 0; st < stripes; st++ {
				if bf > 0 {
					// Stream the stripe to the FPGA.
					node.ChargeCPU(pr, sim.CatDMA, stripeDMABytes, tmem)
					fq.Put(st)
				}
				if bf < s.N {
					// Software rows of the stripe.
					node.ChargeCPU(pr, sim.CatCompute, 0, tp)
				}
			}
			pr.SetPhase("")
			if c != nil {
				// Functional: this node's w result columns, all rows
				// (the bf/bp split is the same arithmetic).
				cols := c.View(0, me*w, s.N, w)
				bCols := b.View(0, me*w, s.N, w)
				matrix.Gemm(1, a, bCols, 0, cols)
			}
			if fpgaDone != nil {
				node.Accel.AwaitDone(pr, fpgaDone)
			}
		})
	}

	n := float64(s.N)
	r, err := h.finish(k, 2*n*n*n)
	if err != nil {
		return nil, err
	}
	res := &MMResult{Result: r, BF: bf, BP: s.N - bf, K: k, Model: mp, Prediction: h.Prediction}
	if s.Functional {
		res.Checked = true
		res.MaxResidual = c.MaxDiff(ref)
	}
	return res, nil
}
