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

	// Functional: every node's w result columns, all rows (the bf/bp
	// split is the same arithmetic). The product does not depend on
	// virtual time, so it runs outside the simulation.
	var c, ref *matrix.Dense
	if s.Functional {
		rng := rand.New(rand.NewSource(s.Seed))
		a := matrix.Random(s.N, s.N, rng)
		b := matrix.Random(s.N, s.N, rng)
		c = matrix.New(s.N, s.N)
		ref = matrix.Mul(a, b)
		for i := 0; i < p; i++ {
			matrix.Gemm(1, a, b.View(0, i*w, s.N, w), 0, c.View(0, i*w, s.N, w))
		}
	}

	// Per-stripe DMA volume: the FPGA's bf·k operand words plus the
	// k·w result words behind the model's Tmem term.
	stripeDMABytes := int64(bf*k+k*w) * machine.WordBytes
	for i := 0; i < p; i++ {
		// Each node's stripe loop runs as two jobs. The FPGA takes each
		// stripe from the queue and computes it. The processor streams
		// each stripe to the FPGA (the DMA's end queues it) and runs its
		// software rows, then waits on the FPGA's status register.
		node := sys.Nodes[i]
		var cpu, tail []sim.Step
		if bf > 0 {
			fq := sim.NewMailbox(sys.Eng, fmt.Sprintf("mm.fq%d", i))
			array := node.Accel.Compute(fpgaStripeCycles)
			array.Recv = fq
			done := node.Accel.LaunchCursor(fmt.Sprintf("mm.fpga%d", i), "stripe",
				stripeLoop(stripes, []sim.Step{array}))
			dma := node.CPUStep(sim.CatDMA, stripeDMABytes, tmem)
			dma.After = func() { fq.Put(nil) }
			cpu = append(cpu, dma)
			tail = append(tail, node.Accel.AwaitStep(done))
		}
		if bf < s.N {
			cpu = append(cpu, node.CPUStep(sim.CatCompute, 0, tp))
		}
		sys.Eng.Detach(sys.Eng.LaunchCursor(fmt.Sprintf("mm.cpu%d", i), "stripe",
			stripeLoop(stripes, cpu, tail...)))
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

// stripeLoop is the cursor of a stripe pipeline's job: the per steps
// once per stripe, then the tail steps.
func stripeLoop(stripes int, per []sim.Step, tail ...sim.Step) func(i int) (sim.Step, bool) {
	return func(i int) (sim.Step, bool) {
		n := stripes * len(per)
		switch {
		case i < n:
			return per[i%len(per)], true
		case i-n < len(tail):
			return tail[i-n], true
		}
		return sim.Step{}, false
	}
}
