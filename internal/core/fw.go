package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/dist"
	"codesign/internal/fault"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/obs"
	"codesign/internal/sim"
)

// FWConfig configures a distributed blocked Floyd-Warshall run
// (Section 5.2.3).
type FWConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the vertex count, B the block size. B·p must divide N and B
	// must be a multiple of the PE count.
	N, B int
	// PEs is the FW design size; 0 means the largest that fits.
	PEs int
	// L1 is the processor's whole-task share per phase; -1 solves
	// Equation (6). L2 is the remainder of n/(b·p). (Baselines force
	// L1: ProcessorOnly takes all, FPGAOnly none.)
	L1 int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional carries a real distance matrix through the run and
	// checks it against the sequential blocked reference.
	Functional bool
	// Trace, when non-nil, receives every engine event.
	Trace func(t float64, proc, action string)
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span digest — utilization, bytes moved, and
	// the Tp/Tf/Tmem/Tcomm overlap decomposition — to the result.
	Telemetry bool
	// Seed drives functional graph generation.
	Seed int64
	// Density is the functional graph's edge density (0 = 0.3).
	Density float64
	// Faults, when non-nil, enables fault injection and degraded mode:
	// the pivot-column owner re-solves Equation (6) at iteration
	// boundaries when sustained rate divergence is detected. Node-kill
	// faults are rejected — the contiguous block-column distribution
	// cannot shed an owner. Incompatible with Functional.
	Faults *fault.Injector
	// Metrics, when non-nil, receives live core_* observability samples
	// (repartition counts by reason, live-node gauge). Publishing never
	// changes simulated results.
	Metrics *obs.Registry
}

// FWResult extends Result with the FW-specific configuration.
type FWResult struct {
	Result
	// L1 and L2 are the resolved processor/FPGA ops per phase; K is
	// the PE count.
	L1, L2, K int
	// IterationSeconds is the latency of each outer iteration.
	IterationSeconds []float64
	// Model is the cost-model instance behind the split.
	Model model.FWParams
	// Prediction is the Section 4.5 forecast at the split.
	Prediction model.Prediction
}

// fwBcast is a broadcast token: the diagonal block (phase 0) or an op22
// result row block (later phases) of iteration t.
type fwBcast struct {
	t, ph int
}

type fwRun struct {
	s       Spec
	sys     *machine.System
	fp      model.FWParams
	nb      int
	cols    dist.ColumnBlocks
	colsPer int // owned block columns per node (= ops per phase)
	l1, l2  int

	tp, tf, tmem, tcomm float64
	blockCycles         float64

	bcast []*sim.Mailbox
	// peers[i] lists every node but i: node i's multicast
	// destinations, built once per run.
	peers [][]int

	d *matrix.Dense // functional distance matrix

	// Degraded-mode state, used only under fault injection.
	tracker      *faultTracker
	repartitions []Repartition
}

func (fr *fwRun) blk(u, v int) *matrix.Dense {
	b := fr.s.B
	return fr.d.View(u*b, v*b, b, b)
}

// owner returns the node owning block column c per the contiguous
// block-column distribution of Section 5.2.3.
func (fr *fwRun) owner(c int) int { return fr.cols.Owner(c) }

// RunFW builds the machine, derives the whole-task split from the
// design model, simulates the distributed computation and returns the
// measured results.
func RunFW(cfg FWConfig) (*FWResult, error) {
	return runFW(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, L1: cfg.L1,
		Mode: cfg.Mode, Functional: cfg.Functional, Seed: cfg.Seed, Trace: cfg.Trace,
		Observer: cfg.Observer, Telemetry: cfg.Telemetry, Faults: cfg.Faults, Metrics: cfg.Metrics},
		cfg.Density)
}

// runFW is RunFW on a Spec, with the functional graph's edge density
// beside it (Spec.Density is spmv's operator density).
func runFW(s Spec, density float64) (*FWResult, error) {
	h, err := fwPlan.start(s)
	if err != nil {
		return nil, err
	}
	s, sys := h.Spec, h.sys
	p := s.Machine.Nodes
	fp := h.FW
	fr := &fwRun{s: s, sys: sys, fp: fp, nb: s.N / s.B, l1: h.Split.L1, l2: h.Split.L2}
	if s.Faults != nil {
		fr.tracker = newFaultTracker(s.Faults)
	}
	fr.cols, err = dist.CheckedColumnBlocks(fr.nb, p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	fr.colsPer = fr.cols.PerNode()
	fr.tp, fr.tf, fr.tmem, fr.tcomm = fp.BlockTimes()
	fr.blockCycles = fpga.NewFW(h.Split.K).Cycles(s.B)

	var ref *matrix.Dense
	if s.Functional {
		if density <= 0 {
			density = 0.3
		}
		rng := rand.New(rand.NewSource(s.Seed))
		fr.d = matrix.RandomGraph(s.N, density, rng)
		ref = fr.d.Clone()
		matrix.BlockedFloydWarshall(ref, s.B)
	}

	fr.peers = make([][]int, p)
	for i := 0; i < p; i++ {
		fr.bcast = append(fr.bcast, sim.NewMailbox(sys.Eng, fmt.Sprintf("fw.bcast%d", i)))
		for d := 0; d < p; d++ {
			if d != i {
				fr.peers[i] = append(fr.peers[i], d)
			}
		}
	}

	iterEnd := make([]float64, fr.nb)
	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		sys.Eng.Go(fmt.Sprintf("node%d.cpu", me), func(pr *sim.Proc) {
			ops := make([]fwOp, 0, fr.colsPer+1)
			for t := 0; t < fr.nb; t++ {
				fr.runIteration(pr, node, me, t, ops)
				if me == 0 {
					iterEnd[t] = pr.Now()
				}
			}
		})
	}

	n := float64(s.N)
	r, err := h.finish(s.B, 2*n*n*n)
	if err != nil {
		return nil, err
	}
	res := &FWResult{Result: r,
		L1: fr.l1, L2: fr.l2, K: h.Split.K,
		Model:      fp,
		Prediction: fp.PredictFW(s.N, fr.l1, fr.l2),
	}
	prev := 0.0
	for _, tEnd := range iterEnd {
		res.IterationSeconds = append(res.IterationSeconds, tEnd-prev)
		prev = tEnd
	}
	if s.Faults != nil {
		res.Repartitions = fr.repartitions
	}
	if s.Functional && ref != nil {
		res.Checked = true
		res.MaxResidual = fr.d.MaxDiff(ref)
	}
	return res, nil
}

// runIteration is iteration t on node me: nb phases, each preceded by a
// broadcast from the pivot-column owner, each performing this node's
// n/(b·p) block operations split between processor and FPGA. ops is the
// node's reusable phase buffer (capacity colsPer+1); runOps keeps no
// reference to it.
func (fr *fwRun) runIteration(pr *sim.Proc, node *machine.Node, me, t int, ops []fwOp) {
	tq := fr.owner(t)
	nb := fr.nb

	// Degraded mode: node 0 samples the divergence tracker once per
	// iteration boundary and re-solves the Equation (6) split when the
	// observed rates have drifted from the ones it was solved against.
	if fr.tracker != nil && me == 0 {
		fr.maybeRepartition(pr.Now(), t)
	}

	// rowSeq is the broadcast order of op22 row blocks (all rows but t).
	rowAt := func(ph int) int { // for phases 1..nb-1
		u := ph - 1
		if u >= t {
			u++
		}
		return u
	}

	// This node owns block columns [lo, hi).
	lo, hi := me*fr.colsPer, (me+1)*fr.colsPer

	for ph := 0; ph < nb; ph++ {
		// --- Broadcast for this phase. ---
		if me == tq {
			if ph == 0 {
				// op1 on the diagonal block — on the owner's
				// processor, except in the FPGA-only baseline.
				nFPGA := 0
				if fr.s.Mode == FPGAOnly {
					nFPGA = 1
				}
				fr.runOps(pr, node, t, ph, []fwOp{{kind: op1, u: t, v: t}}, nFPGA)
			}
			fr.multicast(pr, me, t, ph)
		} else {
			m := fr.bcast[me].Get(pr).(fwBcast)
			if m.t != t || m.ph != ph {
				panic(fmt.Sprintf("core: node %d expected bcast (%d,%d), got (%d,%d)", me, t, ph, m.t, m.ph))
			}
			// Unpack the pivot block; the wire span carried the bytes.
			pr.SetPhase("broadcast")
			node.ChargeCPU(pr, sim.CatNetwork, 0, fr.tcomm)
			pr.SetPhase("")
		}

		// --- This phase's block operations. ---
		// The owner's op22 for the next phase's broadcast goes first
		// so the whole-task split keeps it in the processor segment.
		ops = ops[:0]
		if me == tq && ph < nb-1 {
			ops = append(ops, fwOp{kind: op22, u: rowAt(ph + 1), v: t})
		}
		if ph == 0 {
			for q := lo; q < hi; q++ {
				if q != t {
					ops = append(ops, fwOp{kind: op21, u: t, v: q})
				}
			}
		} else {
			u := rowAt(ph)
			for q := lo; q < hi; q++ {
				if q != t {
					ops = append(ops, fwOp{kind: op3, u: u, v: q})
				}
			}
		}
		nFPGA := fr.l2
		if nFPGA > len(ops) {
			nFPGA = len(ops)
		}
		fr.runOps(pr, node, t, ph, ops, nFPGA)
	}
}

// maybeRepartition re-solves the whole-task split against the observed
// degradation when the tracker fires. A caller-pinned L1 (>= 0) and the
// baselines stay pinned, but the detection is still recorded so the
// resilience report shows recovery lag either way.
func (fr *fwRun) maybeRepartition(now float64, t int) {
	d, fire := fr.tracker.sample(now)
	if !fire {
		return
	}
	if fr.s.Mode == Hybrid && fr.s.L1 < 0 {
		l1, l2 := fr.fp.Repartition(fr.s.N, d)
		total := fr.colsPer
		if l1 > total {
			l1, l2 = total, 0
		}
		if l2 > total {
			l1, l2 = 0, total
		}
		fr.l1, fr.l2 = l1, l2
	}
	fr.repartitions = append(fr.repartitions, Repartition{
		Time: now, Iteration: t, Reason: "divergence",
		Live: fr.sys.Cfg.Nodes, L1: fr.l1, L2: fr.l2,
		Factors: d.Normalized(),
	})
	recordRepartition(fr.s.Metrics, "divergence", fr.sys.Cfg.Nodes)
}

type fwOpKind int

const (
	op1 fwOpKind = iota
	op21
	op22
	op3
)

type fwOp struct {
	kind fwOpKind
	u, v int
}

// runOps executes a batch of block operations with the whole-task split:
// the last nFPGA go to the FPGA (streamed by the processor per
// Equation 6), the rest run on the processor.
func (fr *fwRun) runOps(pr *sim.Proc, node *machine.Node, t, ph int, ops []fwOp, nFPGA int) {
	if len(ops) == 0 {
		return
	}
	pr.SetPhase("op")
	defer pr.SetPhase("")
	if nFPGA > len(ops) {
		nFPGA = len(ops)
	}
	cpuOps := ops[:len(ops)-nFPGA]
	fpgaOps := ops[len(ops)-nFPGA:]

	// The processor streams the FPGA's operand blocks (Eq. 6 charges
	// l2·Tmem to the processor side, 2b² words per block) with the
	// first block's stream exposed, and runs its own ops meanwhile.
	l2, b := float64(len(fpgaOps)), fr.s.B
	ch := jobCharge{cpuDMA: l2 * fr.tmem, fpgaCycles: l2 * fr.blockCycles, fpgaLag: fr.tmem,
		dmaBytes: int64(len(fpgaOps)) * int64(2*b*b) * machine.WordBytes}
	if len(cpuOps) > 0 {
		ch.cpuGemm = node.Proc.Time(cpu.FWKernel, float64(len(cpuOps))*cpu.FWBlockFlops(b))
	}
	done := ch.run(pr, node, "op", "fw.fpga", t, ph, node.ID)
	if fr.d != nil {
		for _, op := range ops {
			fr.apply(op, t)
		}
	}
	if done != nil {
		node.Accel.AwaitDone(pr, done)
	}
}

// apply runs one block operation functionally.
func (fr *fwRun) apply(op fwOp, t int) {
	switch op.kind {
	case op1:
		matrix.FWKernel(fr.blk(t, t))
	case op21:
		matrix.FWRowUpdate(fr.blk(t, op.v), fr.blk(t, t))
	case op22:
		matrix.FWColUpdate(fr.blk(op.u, t), fr.blk(t, t))
	case op3:
		matrix.MinPlusGemm(fr.blk(op.u, t), fr.blk(t, op.v), fr.blk(op.u, op.v))
	}
}

// multicast broadcasts a b×b block to all other nodes (the phase's
// pivot data) and delivers the token.
func (fr *fwRun) multicast(pr *sim.Proc, me, t, ph int) {
	dsts := fr.peers[me]
	if len(dsts) == 0 {
		return
	}
	bytes := fr.s.B * fr.s.B * machine.WordBytes
	pr.SetPhase("broadcast")
	fr.sys.Fab.Multicast(pr, me, dsts, bytes)
	pr.SetPhase("")
	for _, d := range dsts {
		fr.bcast[d].Put(fwBcast{t: t, ph: ph})
	}
}
