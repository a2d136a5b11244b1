package core

import (
	"fmt"
	"math/rand"

	"codesign/internal/cpu"
	"codesign/internal/dist"
	"codesign/internal/fault"
	"codesign/internal/machine"
	"codesign/internal/matrix"
	"codesign/internal/model"
	"codesign/internal/obs"
	"codesign/internal/sim"
)

// LUConfig configures a distributed block LU decomposition run
// (Section 5.1.3).
type LUConfig struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N is the matrix size, B the block size. B must divide N and be a
	// multiple of both the PE count and p-1 (Section 6.1).
	N, B int
	// PEs is the matmul design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA row share of each stripe; -1 solves Equation (4).
	// (Ignored for the baselines: ProcessorOnly forces 0, FPGAOnly B.)
	BF int
	// L is the panel pipeline depth of Equation (5); -1 solves it,
	// 0 disables panel/opMM overlap entirely (operands are sent only
	// after all panel operations finish).
	L int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional carries real matrices through the simulated machine
	// and checks the result against the sequential reference.
	Functional bool
	// Seed drives functional input generation.
	Seed int64
	// DisableStripeOverlap is the ablation of Section 5.1.3's
	// pipelining: the FPGA waits for the whole operand transfer of
	// every stripe instead of only the first.
	DisableStripeOverlap bool
	// InterruptibleRoutines is the ablation of the atomic-ACML-routine
	// effect (Section 6.2): operand sends overlap the panel node's
	// routines instead of serializing with them.
	InterruptibleRoutines bool
	// Trace, when non-nil, receives every engine event (see
	// internal/trace.Collector.Attach for a ready-made consumer).
	Trace func(t float64, proc, action string)
	// Observer, when non-nil, receives the structured telemetry stream
	// (raw events and typed spans; see internal/trace.Recorder).
	Observer sim.Observer
	// Telemetry attaches a span digest — utilization, bytes moved, and
	// the Tp/Tf/Tmem/Tcomm overlap decomposition — to the result.
	Telemetry bool
	// WholeTaskOpMM is the ablation of split-task partitioning: instead
	// of splitting each opMM's rows between processor and FPGA, whole
	// opMM jobs alternate between the two resources (the strategy the
	// paper reserves for dependency-heavy tasks, applied where it does
	// not belong).
	WholeTaskOpMM bool
	// Faults, when non-nil, is installed into every charging path of the
	// machine (see machine.System.InstallFaults) and enables degraded
	// mode: at iteration boundaries the run re-solves Equations (4) and
	// (5) when sustained rate divergence is detected and drops dead
	// nodes from the schedule. Injectors are stateful — build a fresh
	// one per run. Incompatible with Functional.
	Faults *fault.Injector
	// Metrics, when non-nil, receives live core_* observability samples
	// (repartition counts by reason, live-node gauge). Publishing never
	// changes simulated results.
	Metrics *obs.Registry
}

// LUResult extends Result with the LU-specific configuration and the
// per-iteration latencies (Figure 6 reads iteration 0).
type LUResult struct {
	Result
	// BF and BP are the resolved FPGA/processor row split per stripe,
	// L the panel pipeline depth and K the PE count.
	BF, BP, L, K int
	// IterationSeconds is the latency of each outer iteration.
	IterationSeconds []float64
	// Model is the cost-model instance behind the partition.
	Model model.LUParams
	// Prediction is the Section 4.5 forecast at the partition.
	Prediction model.Prediction
}

// luJob is one b×b trailing-update block multiplication, distributed
// over the iteration's compute nodes.
type luJob struct {
	t, u, v int
	// sym marks a symmetric (SYRK) update, which does half the
	// arithmetic and moves half the data of a full one.
	sym     bool
	e       *matrix.Dense // functional accumulator (nil when timing-only or sym)
	arrived int           // result slices delivered to the opMS owner
}

// luSentinel ends iteration t's job stream for a compute node.
type luSentinel struct{ t int }

// luIter carries per-iteration coordination state.
type luIter struct {
	pending int // opMS operations outstanding
	done    *sim.Signal
	bar     *sim.Barrier
	// panel is the node running this iteration's panel operations.
	panel int
	// members are the nodes participating (sorted); nil means all of
	// them (the static, fault-free schedule).
	members []int
	// nodes are the members that perform opMM (all but panel).
	nodes []int
}

// isMember reports whether node me participates in the iteration.
func (it *luIter) isMember(me int) bool {
	if it.members == nil {
		return true
	}
	for _, m := range it.members {
		if m == me {
			return true
		}
	}
	return false
}

// first returns the lowest participating node (the iteration-latency
// recorder).
func (it *luIter) first() int {
	if it.members == nil {
		return 0
	}
	return it.members[0]
}

// luAblation holds LUConfig's three ablation switches, which travel
// beside the Spec (the app table never sets them).
type luAblation struct {
	disableStripeOverlap, interruptibleRoutines, wholeTaskOpMM bool
}

// blockKernel is one block factorization on the shared driver (luRun):
// the panel node factors the diagonal block and solves the panel,
// releasing trailing-update jobs as their operands become ready; the
// other nodes split each job between processor and FPGA and scatter
// the result to the block's owner, which runs opMS. A kernel supplies
// only what differs between factorizations.
type blockKernel struct {
	// name prefixes every mailbox, signal, barrier and process name.
	name string
	// jobs is the job count of an iteration with rem block rows below
	// its diagonal block.
	jobs func(rem int) int
	// panel runs the panel operations on q's node, adding each job to
	// q as its operands become ready and calling q.send to pipeline
	// them; the driver drains q afterwards.
	panel func(q *panelQueue)
	// operand is the b×w column slice from col of job j's right
	// factor, which a compute node multiplies by L_u,t.
	operand func(lr *luRun, j *luJob, col, w int) *matrix.Dense
	// opms applies job j's finished update to the functional matrix.
	opms func(lr *luRun, j *luJob)
}

// luKernel is the paper's LU (Section 5.1.3): opLU, then opL and opU
// down the panel; job (u, v) is A_uv -= L_u,t · U_t,v over the whole
// trailing matrix.
var luKernel = blockKernel{
	name: "lu",
	jobs: func(rem int) int { return rem * rem },
	panel: func(q *panelQueue) {
		lr, pr, node, t, b := q.lr, q.pr, q.node, q.t, q.lr.s.B
		// opLU.
		node.ComputeCPU(pr, cpu.DGETRF, cpu.DgetrfFlops(b))
		if lr.a != nil {
			if err := matrix.LU(lr.blk(t, t)); err != nil {
				panic(fmt.Sprintf("opLU iteration %d: %v", t, err))
			}
		}
		for c := t + 1; c < lr.nb; c++ {
			// opL on block (c, t).
			node.ComputeCPU(pr, cpu.DTRSM, cpu.DtrsmFlops(b))
			if lr.a != nil {
				matrix.TrsmUpperRight(lr.blk(t, t), lr.blk(c, t))
			}
			q.send(lr.l)
			// opU on block (t, c).
			node.ComputeCPU(pr, cpu.DTRSM, cpu.DtrsmFlops(b))
			if lr.a != nil {
				matrix.TrsmLowerUnitLeft(lr.blk(t, t), lr.blk(t, c))
			}
			// Jobs whose operands are now both available: max(u,v) == c.
			for v := t + 1; v <= c; v++ {
				q.add(c, v, false)
			}
			for u := t + 1; u < c; u++ {
				q.add(u, c, false)
			}
			q.send(lr.l)
		}
	},
	operand: func(lr *luRun, j *luJob, col, w int) *matrix.Dense {
		return lr.blk(j.t, j.v).View(0, col, lr.s.B, w)
	},
	opms: func(lr *luRun, j *luJob) { lr.blk(j.u, j.v).Sub(j.e) },
}

// luRun is the block-factorization driver: it bundles everything the
// node processes need and runs kernel k's node program.
type luRun struct {
	k *blockKernel
	s Spec
	luAblation
	sys    *machine.System
	lp     model.LUParams
	nb     int
	bf, bp int
	l      int

	// per-job charge model (seconds / cycles)
	charge jobCharge
	// alt, when non-nil, charges odd jobs (whole-task ablation).
	alt *jobCharge

	boxes []*sim.Mailbox
	iters []*luIter
	// fpgaName and opmsName prefix the FPGA-job and opMS process names.
	fpgaName, opmsName string

	a *matrix.Dense // functional matrix (nil when timing-only)

	// cyc is the block distribution, cached off the forwardResult hot
	// path.
	cyc dist.Cyclic
	// gemmRate is the processor's full-rate dgemm throughput, kept so
	// charges can be rebuilt after a repartition.
	gemmRate float64

	// Degraded-mode state, used only when inj is non-nil.
	inj    *fault.Injector
	lpLive model.LUParams // lp with P tracking the live node count
	live   []int          // currently live nodes, sorted
	dyn    map[int]*luIter
	// tracker decides when observed rates have diverged enough to
	// re-solve the partition.
	tracker      *faultTracker
	repartitions []Repartition
	failure      error
}

func (lr *luRun) blk(u, v int) *matrix.Dense {
	b := lr.s.B
	return lr.a.View(u*b, v*b, b, b)
}

// RunLU builds the machine, derives the partition from the design
// model, simulates the full distributed factorization and returns the
// measured results.
func RunLU(cfg LUConfig) (*LUResult, error) {
	return runLU(Spec{Machine: cfg.Machine, N: cfg.N, B: cfg.B, PEs: cfg.PEs, BF: cfg.BF, L: cfg.L,
		Mode: cfg.Mode, Functional: cfg.Functional, Seed: cfg.Seed, Trace: cfg.Trace,
		Observer: cfg.Observer, Telemetry: cfg.Telemetry, Faults: cfg.Faults, Metrics: cfg.Metrics},
		luAblation{cfg.DisableStripeOverlap, cfg.InterruptibleRoutines, cfg.WholeTaskOpMM})
}

// runLU is RunLU on a Spec, with the ablation switches beside it.
func runLU(s Spec, ab luAblation) (*LUResult, error) {
	h, err := luPlan.start(s)
	if err != nil {
		return nil, err
	}
	s = h.Spec
	lr, err := newLURun(h, &luKernel, ab)
	if err != nil {
		return nil, err
	}

	// Functional state and reference.
	var ref *matrix.Dense
	if s.Functional {
		rng := rand.New(rand.NewSource(s.Seed))
		lr.a = matrix.RandomDiagDominant(s.N, rng)
		ref = lr.a.Clone()
		if err := matrix.BlockLU(ref, s.B); err != nil {
			return nil, fmt.Errorf("core: reference factorization: %w", err)
		}
	}

	n := float64(s.N)
	r, iterEnd, err := lr.execute(h, 2.0/3.0*n*n*n)
	if err != nil {
		return nil, err
	}
	res := &LUResult{Result: r,
		BF: lr.bf, BP: lr.bp, L: lr.l, K: lr.lp.K,
		Model:      lr.lp,
		Prediction: lr.lp.PredictLU(s.N, lr.bf),
	}
	prev := 0.0
	for _, t := range iterEnd {
		res.IterationSeconds = append(res.IterationSeconds, t-prev)
		prev = t
	}
	if lr.inj != nil {
		res.Repartitions = lr.repartitions
		res.DeadNodes = lr.inj.DeadBy(r.Seconds)
	}
	if s.Functional && ref != nil {
		res.Checked = true
		res.MaxResidual = lr.a.MaxDiff(ref)
	}
	return res, nil
}

// newLURun sets kernel k up on the harness's machine and plan: the
// per-job charges, the mailboxes and, on the fault-free path, every
// iteration's coordination state.
func newLURun(h *harness, k *blockKernel, ab luAblation) (*luRun, error) {
	s, sys := h.Spec, h.sys
	p := s.Machine.Nodes
	lr := &luRun{k: k, s: s, luAblation: ab, sys: sys, lp: h.LU, nb: s.N / s.B,
		bf: h.Split.BF, bp: s.B - h.Split.BF, l: h.Split.L,
		fpgaName: k.name + ".fpga", opmsName: k.name + ".opms"}
	var err error
	lr.cyc, err = dist.CheckedCyclic(lr.nb, p)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	lr.gemmRate = sys.Nodes[0].Proc.Rate(cpu.DGEMM)
	lr.lpLive = h.LU
	if s.Faults != nil {
		lr.inj = s.Faults
		lr.dyn = make(map[int]*luIter)
		lr.tracker = newFaultTracker(s.Faults)
		lr.live = make([]int, p)
		for i := range lr.live {
			lr.live[i] = i
		}
	}
	lr.chargeModel()

	// Coordination structures. Under fault injection the per-iteration
	// state is created lazily at each iteration boundary instead, so
	// membership can shrink as nodes die (the construction itself
	// schedules no engine events, so an injector with no faults stays
	// byte-identical to this eager path).
	for i := 0; i < p; i++ {
		lr.boxes = append(lr.boxes, sim.NewMailbox(sys.Eng, fmt.Sprintf("%s.jobs%d", k.name, i)))
	}
	if lr.inj == nil {
		for t := 0; t < lr.nb; t++ {
			lr.iters = append(lr.iters, lr.newIter(t, nil))
		}
	}
	return lr, nil
}

// newIter builds iteration t's coordination state over members (nil:
// every node).
func (lr *luRun) newIter(t int, members []int) *luIter {
	it := &luIter{pending: lr.k.jobs(lr.nb - 1 - t), members: members}
	n := lr.sys.Cfg.Nodes
	if members != nil {
		n = len(members)
	}
	it.done = sim.NewSignal(lr.sys.Eng, fmt.Sprintf("%s.iter%d.done", lr.k.name, t))
	it.bar = sim.NewBarrier(lr.sys.Eng, fmt.Sprintf("%s.iter%d.bar", lr.k.name, t), n)
	it.panel = t % n
	if members != nil {
		it.panel = members[it.panel]
	}
	it.nodes = make([]int, 0, n-1)
	for i := 0; i < n; i++ {
		m := i
		if members != nil {
			m = members[i]
		}
		if m != it.panel {
			it.nodes = append(it.nodes, m)
		}
	}
	if it.pending == 0 {
		it.done.Fire()
	}
	return it
}

// jobCharge is the per-opMM cost model on one compute node.
type jobCharge struct {
	cpuRecv, cpuDMA, cpuGemm float64
	fpgaCycles               float64
	fpgaLag                  float64
	// dmaBytes is the operand volume the cpuDMA charge streams to the
	// FPGA, for telemetry byte accounting.
	dmaBytes int64
}

// halved is the charge of a symmetric (SYRK) update: half the
// arithmetic and half the traffic. The FPGA's start lag is the first
// stripe's transfer, which does not shrink.
func (c jobCharge) halved() jobCharge {
	c.cpuRecv /= 2
	c.cpuDMA /= 2
	c.cpuGemm /= 2
	c.fpgaCycles /= 2
	c.dmaBytes /= 2
	return c
}

// run launches the FPGA share, if any, as a kind job named
// sim.Name(name, ids...), then charges the CPU share on pr: unpack the
// operand messages, stream the FPGA's operands to it, then the
// software half of the work. Unpack carries no bytes (the wire span
// already counted the payload); the DMA charge carries the FPGA's
// operand volume. The CPU charges fuse into one engine park
// (ChargeCPUSeq). It returns the FPGA job's done signal, nil without
// an FPGA share.
func (c jobCharge) run(pr *sim.Proc, node *machine.Node, kind, name string, ids ...int) *sim.Signal {
	var done *sim.Signal
	if c.fpgaCycles > 0 {
		a := node.Accel
		done = a.Launch(sim.Name(name, ids...), kind, a.WaitOperands(c.fpgaLag), a.Compute(c.fpgaCycles))
	}
	var seq [3]sim.Charge
	cs := seq[:0]
	if c.cpuRecv > 0 {
		cs = append(cs, sim.Charge{Cat: sim.CatNetwork, Dt: c.cpuRecv})
	}
	if c.cpuDMA > 0 {
		cs = append(cs, sim.Charge{Cat: sim.CatDMA, Bytes: c.dmaBytes, Dt: c.cpuDMA})
	}
	if c.cpuGemm > 0 {
		cs = append(cs, sim.Charge{Cat: sim.CatCompute, Dt: c.cpuGemm})
	}
	node.ChargeCPUSeq(pr, cs)
	return done
}

// chargeModel derives the per-job costs from the machine parameters.
// One job is a whole b×b block multiplication; stripe-level pipelining
// is aggregated (the stripe-granular view is simulated by RunOpMM for
// Figure 5) with the first stripe's transfer exposed as FPGA start lag.
// It reads lpLive (nominal rates, live node count) and bf, so a
// repartition rebuilds the charges by calling it again — always from
// the NOMINAL parameters: the physical slowdown is applied once, by the
// dilation hooks, at charge time.
func (lr *luRun) chargeModel() {
	charge := func(bf int) jobCharge {
		return opmmCharge(lr.lpLive, bf, lr.gemmRate, lr.disableStripeOverlap)
	}
	switch lr.s.Mode {
	case ProcessorOnly:
		lr.charge = charge(0)
	case FPGAOnly:
		lr.charge = charge(lr.s.B)
	default:
		if lr.wholeTaskOpMM {
			// Ablation: alternate whole jobs between the resources.
			lr.charge = charge(lr.s.B)
			alt := charge(0)
			lr.alt = &alt
		} else {
			lr.charge = charge(lr.bf)
		}
	}
}

// opmmCharge is the per-job charge model of one b×b opMM split at bf
// over lp's p-1 compute nodes; gemmRate is the processor's full-rate
// dgemm throughput and serialStripes the stripe-overlap ablation. Chol
// and QR scale it for their trailing updates.
func opmmCharge(lp model.LUParams, bf int, gemmRate float64, serialStripes bool) jobCharge {
	b := float64(lp.B)
	pm1 := float64(lp.P - 1)
	st := float64(lp.B / lp.K)
	_, tp, tmem, tcomm := lp.StripeTimes(bf)

	var c jobCharge
	c.cpuRecv = st * tcomm // message unpack
	switch {
	case bf == 0:
		// All software: one square-ish dgemm at the full library rate;
		// no DMA, no FPGA.
		c.cpuGemm = 2 * b * b * b / (pm1 * gemmRate)
	case bf == lp.B:
		c.cpuDMA = st * tmem
		c.fpgaCycles = b * b * b / (float64(lp.K) * pm1)
	default:
		c.cpuDMA = st * tmem
		c.cpuGemm = st * tp
		c.fpgaCycles = st * float64(bf) * b / pm1 // bf·b/(p-1) cycles per stripe
	}
	if c.cpuDMA > 0 {
		// Per job the FPGA consumes bf·b stripe words plus its
		// b²/(p-1) result share (the words behind tmem per stripe).
		c.dmaBytes = int64(float64(bf)*b+b*b/pm1) * machine.WordBytes
	}
	if c.fpgaCycles > 0 {
		if serialStripes {
			c.fpgaLag = st*tcomm + c.cpuDMA
		} else {
			c.fpgaLag = tcomm + c.cpuDMA/st // first stripe only
		}
	}
	return c
}

// chargeFor selects the charge set for a job (whole-task ablation
// alternates by job parity).
func (lr *luRun) chargeFor(j *luJob) jobCharge {
	if lr.alt != nil && (j.u+j.v)%2 == 1 {
		return *lr.alt
	}
	return lr.charge
}

// iter returns iteration t's coordination state — pre-built on the
// fault-free path, created lazily at the iteration boundary in degraded
// mode (where membership may have shrunk). Returns nil once the run has
// failed (too few live nodes).
func (lr *luRun) iter(t int) *luIter {
	if lr.inj == nil {
		return lr.iters[t]
	}
	if it, ok := lr.dyn[t]; ok {
		return it
	}
	if lr.failure != nil {
		return nil
	}
	now := lr.sys.Eng.Now()
	lr.maybeRepartition(now, t)
	if lr.failure != nil {
		return nil
	}
	it := lr.newIter(t, lr.live)
	lr.dyn[t] = it
	return it
}

// maybeRepartition runs once per iteration boundary (first process to
// arrive): it refreshes the live set, samples the divergence tracker,
// and re-solves the partition when a node died or the observed rates
// diverged from the ones the current partition was solved against.
func (lr *luRun) maybeRepartition(now float64, t int) {
	live := make([]int, 0, len(lr.live))
	for _, i := range lr.live {
		if lr.inj.Alive(i, now) {
			live = append(live, i)
		}
	}
	died := len(live) < len(lr.live)
	if died {
		if len(live) < 2 {
			lr.failure = fmt.Errorf("core: %s iteration %d: %d node(s) alive at t=%gs, need >= 2 (panel + compute)",
				lr.k.name, t, len(live), now)
			return
		}
		lr.live = live
		lr.lpLive.P = len(live)
	}
	d, fire := lr.tracker.sample(now)
	if !died && !fire {
		return
	}
	if !fire {
		// Death without a divergence trigger: re-solve against the
		// factors the current partition already assumes.
		d = lr.tracker.estimate()
	}
	lr.applyRepartition(now, t, d, died)
}

// applyRepartition re-solves Equations (4)/(5) against the degraded
// live parameters and rebuilds the per-job charges from the nominal
// ones. Partition knobs the caller pinned (BF/L >= 0) stay pinned.
func (lr *luRun) applyRepartition(now float64, t int, d model.Degradation, died bool) {
	if lr.s.Mode == Hybrid && !lr.wholeTaskOpMM && lr.s.BF < 0 {
		lr.bf, lr.bp = lr.lpLive.Degraded(d).SolvePartition()
	}
	if lr.s.L < 0 {
		lr.l = lr.lpLive.Degraded(d).SolveL(lr.bf)
	}
	lr.chargeModel()
	reason := "divergence"
	if died {
		reason = "node-death"
	}
	lr.repartitions = append(lr.repartitions, Repartition{
		Time: now, Iteration: t, Reason: reason, Live: len(lr.live),
		BF: lr.bf, BP: lr.bp, L: lr.l, Factors: d.Normalized(),
	})
	recordRepartition(lr.s.Metrics, reason, len(lr.live))
}

// execute spawns the node programs, runs the simulation and returns
// the common Result with the end time of every iteration.
func (lr *luRun) execute(h *harness, flops float64) (Result, []float64, error) {
	sys := lr.sys
	p := sys.Cfg.Nodes
	iterEnd := make([]float64, lr.nb)

	for i := 0; i < p; i++ {
		node := sys.Nodes[i]
		me := i
		sys.Eng.Go(fmt.Sprintf("node%d.cpu", me), func(pr *sim.Proc) {
			for t := 0; t < lr.nb; t++ {
				it := lr.iter(t)
				if it == nil || !it.isMember(me) {
					// Run failed, or this node died at the iteration
					// boundary (fail-stop): leave the schedule.
					return
				}
				if me == it.panel {
					lr.runPanel(pr, node, t, it)
				} else {
					lr.runCompute(pr, node, me, t, it)
				}
				it.done.Wait(pr)
				it.bar.Arrive(pr)
				if me == it.first() {
					iterEnd[t] = pr.Now()
				}
			}
		})
	}

	r, err := h.finish(lr.s.B, flops)
	if err == nil {
		err = lr.failure
	}
	return r, iterEnd, err
}

// runPanel is iteration t on the panel node: the kernel's panel
// operations, releasing jobs to the compute nodes l at a time
// (Equation 5's pipeline).
func (lr *luRun) runPanel(pr *sim.Proc, node *machine.Node, t int, it *luIter) {
	pr.SetPhase("panel")
	defer pr.SetPhase("")
	q := &panelQueue{lr: lr, pr: pr, node: node, t: t, it: it}
	lr.k.panel(q)
	q.send(-1) // drain whatever the pipeline did not cover
	// With asynchronous sends, the sentinel must not overtake job
	// deliveries still on the wire.
	for _, s := range q.inFlight {
		s.Wait(pr)
	}
	for _, dst := range it.nodes {
		lr.boxes[dst].Put(luSentinel{t: t})
	}
}

// panelQueue is iteration t's job pipeline on the panel node: jobs
// join it as their operands become ready and leave it, in order, as
// operand multicasts to the compute nodes.
type panelQueue struct {
	lr       *luRun
	pr       *sim.Proc
	node     *machine.Node
	t        int
	it       *luIter
	ready    []*luJob
	inFlight []*sim.Signal
}

// add queues job (u, v) of the iteration.
func (q *panelQueue) add(u, v int, sym bool) {
	j := &luJob{t: q.t, u: u, v: v, sym: sym}
	if q.lr.a != nil && !sym {
		j.e = matrix.New(q.lr.s.B, q.lr.s.B)
	}
	q.ready = append(q.ready, j)
}

// send sends up to limit queued jobs (-1: all of them).
func (q *panelQueue) send(limit int) {
	for limit != 0 && len(q.ready) > 0 {
		j := q.ready[0]
		q.ready = q.ready[1:]
		if s := q.lr.sendJob(q.pr, q.node, q.t, j, q.it.nodes); s != nil {
			q.inFlight = append(q.inFlight, s)
		}
		if limit > 0 {
			limit--
		}
	}
}

// sendJob multicasts one job's operand stripes (2b² words, half that
// for a symmetric job) to the compute nodes and enqueues the job. With
// InterruptibleRoutines the send proceeds asynchronously (the ablation
// of the atomic-routine serialization the paper blames for its 86%
// prediction ratio) and a completion signal is returned so the caller
// can drain before sending the iteration sentinel.
func (lr *luRun) sendJob(pr *sim.Proc, node *machine.Node, t int, j *luJob, dsts []int) *sim.Signal {
	bytes := 2 * lr.s.B * lr.s.B * machine.WordBytes
	if j.sym {
		bytes /= 2
	}
	deliver := func() {
		for _, dst := range dsts {
			lr.boxes[dst].Put(j)
		}
	}
	if lr.interruptibleRoutines {
		src := node.ID
		done := sim.NewSignal(lr.sys.Eng, sim.Name(lr.k.name+".sent", t, j.u, j.v))
		lr.sys.Eng.Go(sim.Name(lr.k.name+".send", t, j.u, j.v), func(sp *sim.Proc) {
			sp.SetPhase("broadcast")
			lr.sys.Fab.Multicast(sp, src, dsts, bytes)
			deliver()
			done.Fire()
		})
		return done
	}
	prevPhase := pr.Phase()
	pr.SetPhase("broadcast")
	lr.sys.Fab.Multicast(pr, node.ID, dsts, bytes)
	pr.SetPhase(prevPhase)
	deliver()
	return nil
}

// runCompute is iteration t on a compute node: process the job stream —
// FPGA share launched first, CPU share meanwhile — then scatter the
// result slice to the opMS owner.
func (lr *luRun) runCompute(pr *sim.Proc, node *machine.Node, me, t int, it *luIter) {
	cn := it.nodes
	ci := 0
	for idx, n := range cn {
		if n == me {
			ci = idx
		}
	}
	w := lr.s.B / len(cn) // result columns per node
	pr.SetPhase("opmm")
	defer pr.SetPhase("")
	for {
		msg := lr.boxes[me].Get(pr)
		if s, ok := msg.(luSentinel); ok {
			if s.t != t {
				panic(fmt.Sprintf("core: node %d got sentinel for iteration %d during %d", me, s.t, t))
			}
			return
		}
		j := msg.(*luJob)
		ch := lr.chargeFor(j)
		if j.sym {
			ch = ch.halved()
		}
		done := ch.run(pr, node, "opmm", lr.fpgaName, t, j.u, j.v, me)
		if j.e != nil {
			// Functional: this node produces its column slice of
			// E = L_u,t × operand (both the CPU's bp rows and the
			// FPGA's bf rows — the arithmetic is identical).
			eSlice := j.e.View(0, ci*w, lr.s.B, w)
			matrix.Gemm(1, lr.blk(j.u, j.t), lr.k.operand(lr, j, ci*w, w), 0, eSlice)
		}
		if done != nil {
			node.Accel.AwaitDone(pr, done)
		}
		lr.forwardResult(pr, me, t, j, it)
	}
}

// forwardResult sends this node's slice of the job result to the opMS
// owner (t” = max{u,v} in the paper's data distribution) and, once all
// slices arrive, schedules the subtraction on the owner's processor. A
// dead owner's update is remapped onto a surviving node.
func (lr *luRun) forwardResult(pr *sim.Proc, me, t int, j *luJob, it *luIter) {
	owner := lr.cyc.UpdateOwner(j.u, j.v)
	if it.members != nil && !it.isMember(owner) {
		owner = it.members[owner%len(it.members)]
	}
	nc := len(it.nodes) // compute nodes contributing a slice
	sliceBytes := lr.s.B * lr.s.B / nc * machine.WordBytes
	if j.sym {
		sliceBytes /= 2
	}
	prevPhase := pr.Phase()
	pr.SetPhase("scatter")
	lr.sys.Fab.Transfer(pr, me, owner, sliceBytes)
	pr.SetPhase(prevPhase)
	j.arrived++
	if j.arrived < nc {
		return
	}
	// Last slice in: run opMS on the owner's processor.
	ownerNode := lr.sys.Nodes[owner]
	b := lr.s.B
	lr.sys.Eng.Go(sim.Name(lr.opmsName, t, j.u, j.v), func(mp *sim.Proc) {
		mp.SetPhase("opms")
		unpack := float64(b*b*machine.WordBytes) / lr.lp.Bn
		sub := cpu.SubtractFlops(b)
		if j.sym {
			unpack /= 2
			sub /= 2
		}
		ownerNode.ChargeCPUSeq(mp, []sim.Charge{
			{Cat: sim.CatNetwork, Dt: unpack},
			{Cat: sim.CatCompute, Dt: ownerNode.Proc.Time(cpu.Subtract, sub)},
		})
		if lr.a != nil {
			lr.k.opms(lr, j)
		}
		it.pending--
		if it.pending == 0 {
			it.done.Fire()
		}
	})
}
