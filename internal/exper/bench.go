package exper

import (
	"fmt"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/fault"
	"codesign/internal/trace"
)

// Headline runs the repository's benchmark-regression suite: every
// headline number of the evaluation — design latencies and throughput
// at the paper's problem sizes, solved partition parameters, overlap
// efficiency, prediction accuracy and critical-path shape — as a flat
// metric set. cmd/experiments serializes it with -bench-json and
// re-runs it under -check; because the simulator is deterministic, the
// same build must reproduce every metric bit-exactly, so any diff is a
// behavior change in the code, not noise.
func Headline() (*analysis.Baseline, error) { return headline(false) }

// HeadlineWithIdleFaultLayer is Headline with a no-fault injector
// installed into every LU and FW run. The fault layer's contract is
// zero cost when idle: this suite must be byte-identical to Headline's,
// which the repository-level baseline gate pins at zero tolerance.
func HeadlineWithIdleFaultLayer() (*analysis.Baseline, error) { return headline(true) }

func headline(idleFaults bool) (*analysis.Baseline, error) {
	b := analysis.NewBaseline()
	// Injectors are stateful (they accumulate observation telemetry),
	// so every run gets a fresh one.
	newInj := func() (*fault.Injector, error) {
		if !idleFaults {
			return nil, nil
		}
		return fault.New(&fault.Spec{}, 6)
	}

	// LU at the paper's size, all three designs. The hybrid run also
	// contributes its solved partition, overlap efficiency and critical
	// path, both read in place from its span recorder. The run builds
	// no telemetry Summary: ComputeOverlap over the same span stream
	// and makespan is exactly the Overlap a Summary would carry.
	rec := trace.NewRecorder()
	inj, err := newInj()
	if err != nil {
		return nil, err
	}
	lu, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1,
		Mode: core.Hybrid, Observer: rec, Faults: inj})
	if err != nil {
		return nil, err
	}
	b.Set("lu.hybrid.seconds", lu.Seconds)
	b.Set("lu.hybrid.gflops", lu.GFLOPS)
	b.Set("lu.hybrid.bf", float64(lu.BF))
	b.Set("lu.hybrid.l", float64(lu.L))
	b.Set("lu.hybrid.iter0_s", lu.IterationSeconds[0])
	b.Set("lu.hybrid.prediction_ratio", lu.GFLOPS/lu.Prediction.GFLOPS)
	b.Set("lu.hybrid.overlap_efficiency", trace.ComputeOverlap(rec.SpansView(), lu.Seconds).Efficiency())
	luPath := analysis.ExtractCriticalPath(rec.SpansView(), lu.Seconds)
	b.Set("lu.hybrid.critical_path_hops", float64(len(luPath)))
	b.Set("lu.hybrid.critical_path_s", analysis.PathTotal(luPath))

	for _, m := range []core.Mode{core.ProcessorOnly, core.FPGAOnly} {
		inj, err := newInj()
		if err != nil {
			return nil, err
		}
		r, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: m, Faults: inj})
		if err != nil {
			return nil, err
		}
		b.Set("lu."+m.String()+".seconds", r.Seconds)
		b.Set("lu."+m.String()+".gflops", r.GFLOPS)
	}

	// FW at the Section 6.2 throughput-equivalent size, all designs.
	// The hybrid run reuses the LU recorder's storage.
	rec.Reset()
	if inj, err = newInj(); err != nil {
		return nil, err
	}
	fw, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: -1,
		Mode: core.Hybrid, Observer: rec, Faults: inj})
	if err != nil {
		return nil, err
	}
	b.Set("fw.hybrid.seconds", fw.Seconds)
	b.Set("fw.hybrid.gflops", fw.GFLOPS)
	b.Set("fw.hybrid.l1", float64(fw.L1))
	b.Set("fw.hybrid.l2", float64(fw.L2))
	b.Set("fw.hybrid.prediction_ratio", fw.GFLOPS/fw.Prediction.GFLOPS)
	b.Set("fw.hybrid.overlap_efficiency", trace.ComputeOverlap(rec.SpansView(), fw.Seconds).Efficiency())
	fwPath := analysis.ExtractCriticalPath(rec.SpansView(), fw.Seconds)
	b.Set("fw.hybrid.critical_path_hops", float64(len(fwPath)))
	b.Set("fw.hybrid.critical_path_s", analysis.PathTotal(fwPath))

	for _, m := range []core.Mode{core.ProcessorOnly, core.FPGAOnly} {
		inj, err := newInj()
		if err != nil {
			return nil, err
		}
		r, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: m, Faults: inj})
		if err != nil {
			return nil, err
		}
		b.Set("fw."+m.String()+".seconds", r.Seconds)
		b.Set("fw."+m.String()+".gflops", r.GFLOPS)
	}

	// Figure anchors: the optima the paper calls out.
	if inj, err = newInj(); err != nil {
		return nil, err
	}
	lu3, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid, Faults: inj})
	if err != nil {
		return nil, err
	}
	b.Set("lu.bf1280_l3.iter0_s", lu3.IterationSeconds[0])
	if inj, err = newInj(); err != nil {
		return nil, err
	}
	fw2, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: 2, Mode: core.Hybrid, Faults: inj})
	if err != nil {
		return nil, err
	}
	b.Set("fw.l1_2.iter_s", fw2.Seconds/float64(len(fw2.IterationSeconds)))

	// Model extensions (Section 7 scope): one hybrid run per kernel.
	mm, err := core.RunMM(core.MMConfig{N: 6144, BF: -1, Mode: core.Hybrid})
	if err != nil {
		return nil, err
	}
	b.Set("mm.hybrid.seconds", mm.Seconds)
	b.Set("mm.hybrid.gflops", mm.GFLOPS)
	ch, err := core.RunCholesky(core.CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid})
	if err != nil {
		return nil, err
	}
	b.Set("chol.hybrid.seconds", ch.Seconds)
	b.Set("chol.hybrid.gflops", ch.GFLOPS)
	qr, err := core.RunQR(core.QRConfig{N: 30000, B: 3000, BF: -1, Mode: core.Hybrid})
	if err != nil {
		return nil, err
	}
	b.Set("qr.hybrid.seconds", qr.Seconds)
	b.Set("qr.hybrid.gflops", qr.GFLOPS)
	cg, err := core.RunCG(core.CGConfig{N: 1024, RowsFPGA: -1, Mode: core.Hybrid, Seed: 1})
	if err != nil {
		return nil, err
	}
	b.Set("cg.hybrid.seconds", cg.Seconds)
	b.Set("cg.hybrid.gflops", cg.GFLOPS)

	// Panel-routine latencies of Table 1 (pure model, no simulation).
	t1, err := Table1()
	if err != nil {
		return nil, err
	}
	for _, row := range t1.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[2], "%f", &v); err != nil {
			return nil, fmt.Errorf("exper: bad table1 latency %q: %w", row[2], err)
		}
		b.Set("table1."+row[1]+".latency_s", v)
	}
	return b, nil
}
