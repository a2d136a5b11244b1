package core

import (
	"fmt"

	"codesign/internal/cpu"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/model"
)

// Plan is an app's design model at one Spec — the paper's pipeline in
// one value: the machine and design characterised by (p, Of, Op×Fp,
// Ff, Bd, Bn, bw), the Equation 1/4/5/6 partition solved from them, and
// the Section 4.5 prediction at that partition. Every Run* simulates
// its plan; sweep and serve read the model path straight from it.
type Plan struct {
	// Spec is the planned spec, with Machine defaulted and PEs resolved
	// to the installed design's PE count.
	Spec Spec
	// Placement is the placed design: resource usage and clock (Ff).
	Placement
	// Bd is the effective FPGA-DRAM bandwidth: min(raw path, one word
	// per design cycle).
	Bd float64
	// Split is the resolved partition; for cg, whose row split depends
	// on the operand, only K is set.
	Split Split
	// LU, FW, MM and MV are the model parameters. Only the app's own is
	// set: LU for lu, chol and qr, MV for spmv.
	LU model.LUParams
	// FW is fw's model.
	FW model.FWParams
	// MM is mm's model.
	MM model.MMParams
	// MV is spmv's model.
	MV model.SpMVParams
	// Prediction is the Section 4.5 forecast at the split.
	Prediction model.Prediction
	// Binding names the model parameter that binds the partitioned
	// phase.
	Binding model.Binding
	// Margin is the binding's normalized imbalance (0 = balanced).
	Margin float64
}

// Placement is a placed FPGA design.
type Placement struct {
	// Usage is the design's resource consumption.
	Usage fpga.Usage
	// FreqHz is the post-place-and-route clock (the model's Ff).
	FreqHz float64
}

// Memo memoizes the plan stage's three solvers — the largest-fitting
// PE-array search, pseudo place-and-route and the closed-form partition
// solves — so a caller planning many neighbouring points solves each
// distinct problem once. A key identifies its problem, naming the
// device by part name; on a miss the memo calls the key's solver (with
// the named device), and it must return exactly what that solver
// returns. A nil Memo solves directly.
type Memo interface {
	// MaxPEs returns key.Search(dev).
	MaxPEs(key MaxPEsKey, dev fpga.Device) int
	// Place returns key.Place(dev).
	Place(key PlaceKey, dev fpga.Device) (Placement, error)
	// Partition returns key.Solve().
	Partition(key PartitionKey) (int, int)
}

// MaxPEsKey is one largest-fitting-PE-array search: the PE count a
// PEs=0 spec installs. It names only the axes the search depends on:
// the design family (lu, mm, chol and qr share the matmul array), the
// device, and the block size for fw alone, whose array must divide it.
// Only the plan stage builds keys.
type MaxPEsKey struct {
	family string
	device string
	b      int
}

// Search returns the largest PE count of the family that fits dev,
// shrunk to the largest that divides the block size for fw.
func (key MaxPEsKey) Search(dev fpga.Device) int {
	k := fpga.MaxPEs(familyNamed(key.family).mk, dev)
	for k > 1 && key.b%k != 0 {
		k--
	}
	return k
}

// PlaceKey is one pseudo place-and-route problem: a family's k-PE array
// on a device.
type PlaceKey struct {
	family string
	k      int
	device string
}

// Place places the design on dev, or reports why it does not fit.
func (key PlaceKey) Place(dev fpga.Device) (Placement, error) {
	d := familyNamed(key.family).mk(key.k)
	p, err := fpga.Place(d, dev)
	if err != nil {
		return Placement{}, err
	}
	return Placement{Usage: d.Resources(), FreqHz: p.FreqHz}, nil
}

// PartitionKey is one closed-form partition solve: the equation
// ("lu.bf" Eq. 4, "lu.l" Eq. 5, "fw.l1" Eq. 6, "mm.bf" or "spmv.rf"
// Eq. 1), the model parameters it is solved for, and the extra scalar
// some solves need (bf for Eq. 5, n for Eq. 6).
type PartitionKey struct {
	kind   string
	params any
	arg    int
}

// Solve solves the equation: bf/bp, l/0, l1/l2 or rowsFPGA/rowsCPU.
func (key PartitionKey) Solve() (int, int) {
	switch p := key.params.(type) {
	case model.LUParams:
		if key.kind == "lu.l" {
			return p.SolveL(key.arg), 0
		}
		return p.SolvePartition()
	case model.FWParams:
		return p.SolveSplit(key.arg)
	case model.MMParams:
		return p.SolvePartition()
	case model.SpMVParams:
		return p.SolvePartition()
	}
	panic(fmt.Sprintf("core: no %s solver for %T", key.kind, key.params))
}

// family is a PE-array design family: the FPGA design an app installs.
type family struct {
	name string
	mk   func(k int) fpga.Design
	// dividesBlock marks arrays whose PE count must divide the block
	// size; the PEs=0 search shrinks the largest fitting array to the
	// largest PE count that does.
	dividesBlock bool
}

var (
	matmulArray = family{name: "matmul", mk: func(k int) fpga.Design { return fpga.NewMatMul(k) }}
	fwArray     = family{name: "fw", mk: func(k int) fpga.Design { return fpga.NewFW(k) }, dividesBlock: true}
	mvArray     = family{name: "mv", mk: func(k int) fpga.Design { return fpga.NewMV(k) }}
)

// familyNamed returns the family a memo key names.
func familyNamed(name string) family {
	for _, f := range []family{matmulArray, fwArray, mvArray} {
		if f.name == name {
			return f
		}
	}
	panic(fmt.Sprintf("core: unknown design family %q", name))
}

// direct is the nil Memo: it solves every problem itself.
type direct struct{}

func (direct) MaxPEs(key MaxPEsKey, dev fpga.Device) int              { return key.Search(dev) }
func (direct) Place(key PlaceKey, dev fpga.Device) (Placement, error) { return key.Place(dev) }
func (direct) Partition(key PartitionKey) (int, int)                  { return key.Solve() }

// planner is one app's plan stage.
type planner struct {
	// name is the app's table name, used in error messages.
	name   string
	family family
	// check rejects a geometry the app cannot run on p nodes with a
	// k-PE array; it runs before placement.
	check func(s Spec, p, k int) error
	// model builds the app's model parameters from the placed design
	// and resolves the partition, prediction and binding; nil for an
	// app without a closed-form model, whose noModel says why.
	model   func(pl Plan, m Memo) (Plan, error)
	noModel string
	// faults is the run stage's fault policy (run.go).
	faults faultPolicy
}

// plan resolves, in order: the machine, the PE count (largest fitting
// array when PEs is 0), the app's geometry checks, the placement, and
// then the app's model, partition and prediction.
func (pr *planner) plan(s Spec, m Memo) (Plan, error) {
	if m == nil {
		m = direct{}
	}
	if s.Machine.Nodes == 0 {
		s.Machine = machine.XD1()
	}
	mc := s.Machine
	if err := mc.Validate(); err != nil {
		return Plan{}, err
	}
	if s.PEs == 0 {
		key := MaxPEsKey{family: pr.family.name, device: mc.Device.Name}
		if pr.family.dividesBlock {
			key.b = s.B
		}
		s.PEs = m.MaxPEs(key, mc.Device)
	}
	k := s.PEs
	if k < 1 {
		return Plan{}, fmt.Errorf("no %s PE array fits %s", pr.name, mc.Device.Name)
	}
	if err := pr.check(s, mc.Nodes, k); err != nil {
		return Plan{}, err
	}
	pc, err := m.Place(PlaceKey{family: pr.family.name, k: k, device: mc.Device.Name}, mc.Device)
	if err != nil {
		return Plan{}, err
	}
	pl := Plan{Spec: s, Placement: pc, Bd: machine.EffectiveBd(mc.RawFPGADRAMBandwidth, pc.FreqHz), Split: Split{K: k}}
	if pr.model == nil {
		return pl, nil
	}
	return pr.model(pl, m)
}

// share resolves one partition share of total through the design
// variant — the one mode switch behind every app's split. The share is
// the FPGA's (fpga-only takes all of total, processor-only none) unless
// procShare marks it as the processor's, as fw's l1 is. In hybrid mode
// a negative given share is solved from the model.
func share(mode Mode, name string, given, total int, procShare bool, solve func() int) (int, error) {
	switch mode {
	case ProcessorOnly, FPGAOnly:
		given = 0
		if (mode == FPGAOnly) != procShare {
			given = total
		}
	default:
		if given < 0 {
			given = solve()
		}
	}
	if given < 0 || given > total {
		return 0, fmt.Errorf("%s=%d out of [0,%d]", name, given, total)
	}
	return given, nil
}

// clampResident shrinks an SRAM-resident FPGA row share rf until its
// rows' stream words fit capWords.
func clampResident(rf, capWords int, words func(lo, hi int) int) int {
	for rf > 0 && words(0, rf) > capWords {
		rf--
	}
	return rf
}

// maxBlocks bounds n/b for the blocked factorizations: their Section
// 4.5 predictors and simulations walk every block iteration, so an
// unbounded block count would let one query run without bound.
const maxBlocks = 4096

// checkBlocked is the geometry check of the blocked factorizations (lu,
// chol, qr): a panel node plus p-1 compute nodes, b dividing n, and
// b split evenly over the compute nodes and the PE array.
func checkBlocked(app string) func(s Spec, p, k int) error {
	return func(s Spec, p, k int) error {
		n, b := s.N, s.B
		switch {
		case p < 2:
			return fmt.Errorf("%s needs p >= 2, got %d", app, p)
		case n <= 0 || b == 0 || n%b != 0:
			return fmt.Errorf("block size %d must divide n=%d", b, n)
		case n/b > maxBlocks:
			return fmt.Errorf("n/b=%d blocks exceeds %d", n/b, maxBlocks)
		case b%(p-1) != 0:
			return fmt.Errorf("block size %d must be a multiple of p-1=%d", b, p-1)
		case b%k != 0:
			return fmt.Errorf("block size %d must be a multiple of k=%d", b, k)
		}
		return nil
	}
}

// stripePlanner plans lu, chol and qr: the LU model's Equation (4)
// stripe split and, when pipelined, the Equation (5) panel pipeline
// depth, forecast by predict.
func stripePlanner(app string, pipelined bool, predict func(lp model.LUParams, n, bf int) model.Prediction) planner {
	return planner{name: app, family: matmulArray, check: checkBlocked(app), model: func(pl Plan, m Memo) (Plan, error) {
		s := &pl.Spec
		lp := luParams(&pl)
		if err := lp.Validate(); err != nil {
			return pl, err
		}
		bf, err := share(s.Mode, "bf", s.BF, s.B, false, func() int {
			bf, _ := m.Partition(PartitionKey{kind: "lu.bf", params: lp})
			return bf
		})
		if err != nil {
			return pl, err
		}
		pl.LU = lp
		pl.Split.BF, pl.Split.BP = bf, s.B-bf
		if pipelined {
			pl.Split.L = s.L
			if s.L < 0 {
				pl.Split.L, _ = m.Partition(PartitionKey{kind: "lu.l", params: lp, arg: bf})
			}
		}
		pl.Prediction = predict(lp, s.N, bf)
		pl.Binding, pl.Margin = lp.StripeBinding(bf)
		return pl, nil
	}}
}

// scalePrediction rescales a prediction's times by factor and recomputes
// throughput for the given useful flops.
func scalePrediction(p model.Prediction, factor, flops float64) model.Prediction {
	p.Ttp *= factor
	p.Ttf *= factor
	p.Seconds *= factor
	p.Flops = flops
	p.GFLOPS = flops / p.Seconds / 1e9
	return p
}

var (
	luPlan = stripePlanner("lu", true, model.LUParams.PredictLU)
	// Cholesky does half of LU's trailing work per iteration pair: the
	// LU predictor scaled by the flop ratio, at n³/3 useful flops.
	cholPlan = stripePlanner("chol", true, func(lp model.LUParams, n, bf int) model.Prediction {
		nn := float64(n)
		return scalePrediction(lp.PredictLU(n, bf), 0.5, nn*nn*nn/3)
	})
	qrPlan = stripePlanner("qr", false, func(lp model.LUParams, n, bf int) model.Prediction {
		return predictQR(n, lp.B, lp.P, bf, lp)
	})

	fwPlan = planner{name: "fw", family: fwArray,
		faults: faultPolicy{kills: "fw cannot survive node kills: the contiguous block-column distribution has no surviving owner for a dead node's columns"},
		check: func(s Spec, p, k int) error {
			switch b := s.B; {
			case b*p == 0 || s.N%(b*p) != 0:
				return fmt.Errorf("b*p=%d must divide n=%d", b*p, s.N)
			case b%k != 0:
				return fmt.Errorf("block size %d must be a multiple of k=%d", b, k)
			}
			return nil
		},
		model: func(pl Plan, m Memo) (Plan, error) {
			n := pl.Spec.N
			fp := fwParams(&pl)
			if err := fp.Validate(); err != nil {
				return pl, err
			}
			total := fp.OpsPerPhase(n)
			l1, err := share(pl.Spec.Mode, "l1", pl.Spec.L1, total, true, func() int {
				l1, _ := m.Partition(PartitionKey{kind: "fw.l1", params: fp, arg: n})
				return l1
			})
			if err != nil {
				return pl, err
			}
			l2 := total - l1
			pl.FW = fp
			pl.Split.L1, pl.Split.L2 = l1, l2
			pl.Prediction = fp.PredictFW(n, l1, l2)
			pl.Binding, pl.Margin = fp.PhaseBinding(l1, l2)
			return pl, nil
		}}

	mmPlan = planner{name: "mm", family: matmulArray,
		faults: faultPolicy{kills: "mm has no surviving owner for a dead node's result columns"},
		check: func(s Spec, p, k int) error {
			switch n := s.N; {
			case n%k != 0:
				return fmt.Errorf("n=%d must be a multiple of k=%d", n, k)
			case n%p != 0:
				return fmt.Errorf("n=%d must be a multiple of p=%d", n, p)
			}
			return nil
		},
		model: func(pl Plan, m Memo) (Plan, error) {
			n := pl.Spec.N
			mp := mmParams(&pl)
			if err := mp.Validate(); err != nil {
				return pl, err
			}
			bf, err := share(pl.Spec.Mode, "bf", pl.Spec.BF, n, false, func() int {
				bf, _ := m.Partition(PartitionKey{kind: "mm.bf", params: mp})
				return bf
			})
			if err != nil {
				return pl, err
			}
			pl.MM = mp
			pl.Split.BF, pl.Split.BP = bf, n-bf
			pl.Prediction = mp.PredictMM(bf)
			pl.Binding, pl.Margin = mp.StripeBinding(bf)
			return pl, nil
		}}

	spmvPlan = planner{name: "spmv", family: mvArray,
		faults: faultPolicy{kills: "spmv runs on a single node and cannot survive node kills", alwaysChecked: true},
		check: func(s Spec, _, _ int) error {
			if s.Density < 0 || s.Density > 1 {
				return fmt.Errorf("density %g out of [0,1]", s.Density)
			}
			return nil
		},
		model: func(pl Plan, m Memo) (Plan, error) {
			s := &pl.Spec
			n := s.N
			applies := max(s.RHS, 1)
			// matrix.RandomSparse stores round(density·(n-1))
			// off-diagonals plus the diagonal in every row, so the
			// operator's stream footprint follows from (n, density)
			// exactly; runMV checks the operator it builds against it.
			rowNNZ := n
			if s.Density > 0 {
				rowNNZ = int(s.Density*float64(n-1)+0.5) + 1
			}
			words := func(lo, hi int) int {
				if s.Density > 0 {
					return model.CSRStreamWords((hi - lo) * rowNNZ)
				}
				return (hi - lo) * n
			}
			total, capWords := words(0, n), sramWords(s.Machine)
			mv := mvParams(&pl, mvLoad{words: total, nnz: n * rowNNZ, sparse: s.Density > 0,
				applies: applies, resident: applies > 1 && total <= capWords})
			if err := mv.Validate(); err != nil {
				return pl, err
			}
			rf, err := share(s.Mode, "rowsFPGA", s.BF, n, false, func() int {
				rf, _ := m.Partition(PartitionKey{kind: "spmv.rf", params: mv})
				return rf
			})
			if err != nil {
				return pl, err
			}
			if mv.Resident {
				rf = clampResident(rf, capWords, words)
			}
			pl.MV = mv
			pl.Split.BF, pl.Split.BP = rf, n-rf
			pl.Prediction = mv.PredictSpMV(rf)
			pl.Binding, pl.Margin = mv.StripeBinding(rf)
			return pl, nil
		}}

	// cg's row split depends on the operand's per-row nonzeros, so its
	// plan stops at the placed design; RunCG builds the model once the
	// operand exists.
	cgPlan = planner{name: "cg", family: mvArray, noModel: "its row split depends on the operand",
		check: func(s Spec, _, _ int) error {
			if s.N <= 0 {
				return fmt.Errorf("cg needs n > 0")
			}
			return nil
		}}
)

// sramHalf is the on-board memory the dense designs allocate for
// intermediate results: half of the node's QDR-II capacity (8 MB of
// XD1's 16 MB, as in the paper).
func sramHalf(mc machine.Config) int64 { return sramTotal(mc) / 2 }

// sramTotal is one node's total QDR-II capacity.
func sramTotal(mc machine.Config) int64 { return int64(mc.SRAMBanks) * mc.SRAMBankBytes }

// sramWords is one node's SRAM capacity in words, the mv designs'
// resident budget.
func sramWords(mc machine.Config) int { return int(float64(sramTotal(mc)) / machine.WordBytes) }

// luParams is the Section 5.1.3 model of the placed matmul array: the
// model behind lu, chol, qr and the Figure 5 opMM.
func luParams(pl *Plan) model.LUParams {
	mc := pl.Spec.Machine
	proc := mc.Processor()
	return model.LUParams{
		P: mc.Nodes, B: pl.Spec.B, K: pl.Split.K,
		Ff:         pl.FreqHz,
		StripeRate: proc.Rate(cpu.DGEMMStripe),
		LURate:     proc.Rate(cpu.DGETRF),
		TrsmRate:   proc.Rate(cpu.DTRSM),
		Bd:         pl.Bd,
		Bn:         mc.Fabric.LinkBandwidth,
		Bw:         machine.WordBytes,
		SRAMBytes:  sramHalf(mc),
	}
}

// fwParams is the Section 5.2.3 model of the placed FW array.
func fwParams(pl *Plan) model.FWParams {
	mc := pl.Spec.Machine
	return model.FWParams{
		P: mc.Nodes, B: pl.Spec.B, K: pl.Split.K,
		Ff:        pl.FreqHz,
		FWRate:    mc.Processor().Rate(cpu.FWKernel),
		Bd:        pl.Bd,
		Bn:        mc.Fabric.LinkBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: sramHalf(mc),
	}
}

// mmParams is the Equation (1) model of the placed matmul array
// multiplying n×n matrices.
func mmParams(pl *Plan) model.MMParams {
	mc := pl.Spec.Machine
	return model.MMParams{
		P: mc.Nodes, N: pl.Spec.N, K: pl.Split.K,
		Ff:         pl.FreqHz,
		StripeRate: mc.Processor().Rate(cpu.DGEMMStripe),
		Bd:         pl.Bd,
		Bw:         machine.WordBytes,
		SRAMBytes:  sramHalf(mc),
	}
}

// mvLoad is what an mv-array app streams through the design.
type mvLoad struct {
	// words and nnz are the operator's stream footprint and stored
	// entries; sparse selects the CSR apply rate over dense DGEMV.
	words, nnz int
	sparse     bool
	// applies is the operator application count; resident loads the
	// FPGA share into SRAM once instead of streaming it per apply.
	applies  int
	resident bool
	// vecFlops is per-apply processor vector work that cannot be
	// offloaded (cg's axpy/dot tail).
	vecFlops float64
}

// mvParams is the Equation (1) row-split model of the placed mv array
// applying an operator: spmv's and cg's model.
func mvParams(pl *Plan, ld mvLoad) model.SpMVParams {
	mc := pl.Spec.Machine
	proc := mc.Processor()
	rate := proc.Rate(cpu.DGEMV)
	if ld.sparse {
		rate = proc.Rate(cpu.SpMV)
	}
	return model.SpMVParams{
		N: pl.Spec.N, K: pl.Split.K, Words: ld.words,
		Ff:        pl.FreqHz,
		MVRate:    rate,
		VecTime:   proc.Time(cpu.VectorOp, ld.vecFlops),
		Bd:        pl.Bd,
		Bs:        mc.SRAMBandwidth,
		Bw:        machine.WordBytes,
		SRAMBytes: sramTotal(mc),
		Resident:  ld.resident,
		Applies:   ld.applies,
		Flops:     float64(ld.applies) * 2 * float64(ld.nnz),
	}
}
