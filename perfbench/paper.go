package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/exper"
	"codesign/internal/matrix"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// paperSims is the number of simulations one Headline pass runs.
const paperSims = 12

// Throughput the paper reports for its Cray XD1 designs (Sec. 6). The
// paper is the model's only hardware reference.
const (
	paperLUGFLOPS = 20.0
	paperFWGFLOPS = 6.6
)

// cgN and cgSeed are the CG configuration Headline runs; its dense
// operand comes from matrix.RandomSPD at this size and seed.
const (
	cgN    = 1024
	cgSeed = 1
)

// paperBench runs exper.Headline back to back and checks every pass
// against the committed BENCH_baseline.json at tolerance 0. Its inputs
// are the paper's configurations, so the seed changes nothing.
type paperBench struct {
	ref     *analysis.Baseline
	refPath string
	last    map[string]float64
	// luSpans and luMakespan keep the hybrid LU run's simulated spans
	// from the last traced pass, for the span file.
	luSpans    []sim.SpanEvent
	luMakespan float64
}

func openPaper(o options) (bench, error) {
	ref, err := analysis.ReadBaselineFile(o.baseline)
	if err != nil {
		return nil, fmt.Errorf("paper-suite: loading reference: %w", err)
	}
	if len(ref.Metrics) == 0 {
		return nil, fmt.Errorf("paper-suite: reference %s holds no metrics", o.baseline)
	}
	return &paperBench{ref: ref, refPath: o.baseline}, nil
}

func (p *paperBench) describe(w io.Writer) {
	fmt.Fprintf(w, "inputs: paper-suite reference %s (%d metrics, digest %s); the paper's configurations, seed unused\n",
		p.refPath, len(p.ref.Metrics), baselineDigest(p.ref))
}

// baselineDigest digests a baseline's metrics in name order.
func baselineDigest(b *analysis.Baseline) string {
	var parts [][]byte
	for _, n := range b.Names() {
		parts = append(parts, []byte(fmt.Sprintf("%s=%.17g", n, b.Metrics[n])))
	}
	return digest(parts...)
}

// checkMetrics compares fresh values with the reference at tolerance 0:
// every fresh value must exist in the reference and equal it bit for
// bit. It returns the checks made and the mismatches.
func checkMetrics(ref *analysis.Baseline, fresh map[string]float64) (attempted int, bad []analysis.Delta) {
	sub := analysis.NewBaseline()
	for n := range fresh {
		if v, ok := ref.Metrics[n]; ok {
			sub.Set(n, v)
		}
	}
	got := analysis.NewBaseline()
	for n, v := range fresh {
		got.Set(n, v)
	}
	return len(fresh), analysis.Diff(sub, got, 0)
}

func (p *paperBench) pass(pr *probe) (passStats, error) {
	if pr != nil {
		return p.replay(pr)
	}
	start := time.Now()
	b, err := exper.Headline()
	wall := time.Since(start)
	if err != nil {
		return passStats{}, fmt.Errorf("paper-suite: %w", err)
	}
	bad := analysis.Diff(p.ref, b, 0)
	reportDeltas("paper-suite", bad)
	p.last = b.Metrics
	return passStats{wall: wall, ops: paperSims, latMS: []float64{ms(wall)},
		attempted: len(p.ref.Metrics), failed: len(bad)}, nil
}

// reportDeltas prints correctness mismatches to standard error.
func reportDeltas(workload string, bad []analysis.Delta) {
	for _, d := range bad {
		fmt.Fprintf(os.Stderr, "perfbench: %s mismatch: %s\n", workload, d)
	}
}

// paperCall is one core.Run* call of the Headline suite, replayed on
// its own in the traced run. run returns the baseline metrics the call
// reproduces and the run's simulated makespan; rec, when non-nil,
// records its spans.
type paperCall struct {
	layer string
	name  string
	rec   bool
	run   func(rec *trace.Recorder) (map[string]float64, float64, error)
}

// seconds is the metric set of most calls: the label's simulated
// seconds and GFLOPS.
func seconds(label string, r *core.Result) map[string]float64 {
	return map[string]float64{label + ".seconds": r.Seconds, label + ".gflops": r.GFLOPS}
}

func luCall(cfg core.LUConfig, rec bool, metrics func(*core.LUResult) map[string]float64) paperCall {
	return paperCall{layer: "core.lu_s", name: "core.RunLU", rec: rec,
		run: func(r *trace.Recorder) (map[string]float64, float64, error) {
			if r != nil {
				cfg.Observer, cfg.Telemetry = r, true
			}
			res, err := core.RunLU(cfg)
			if err != nil {
				return nil, 0, err
			}
			return metrics(res), res.Seconds, nil
		}}
}

func fwCall(cfg core.FWConfig, rec bool, metrics func(*core.FWResult) map[string]float64) paperCall {
	return paperCall{layer: "core.fw_s", name: "core.RunFW", rec: rec,
		run: func(r *trace.Recorder) (map[string]float64, float64, error) {
			if r != nil {
				cfg.Observer, cfg.Telemetry = r, true
			}
			res, err := core.RunFW(cfg)
			if err != nil {
				return nil, 0, err
			}
			return metrics(res), res.Seconds, nil
		}}
}

// kernelCall wraps a hybrid kernel whose Headline metrics are its
// seconds and GFLOPS.
func kernelCall(layer, name, label string, run func() (*core.Result, error)) paperCall {
	return paperCall{layer: layer, name: name,
		run: func(*trace.Recorder) (map[string]float64, float64, error) {
			res, err := run()
			if err != nil {
				return nil, 0, err
			}
			return seconds(label, res), res.Seconds, nil
		}}
}

// paperCalls lists the Headline suite's simulations in Headline order.
func paperCalls() []paperCall {
	calls := []paperCall{luCall(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid}, true,
		func(r *core.LUResult) map[string]float64 {
			m := seconds("lu.hybrid", &r.Result)
			m["lu.hybrid.bf"], m["lu.hybrid.l"] = float64(r.BF), float64(r.L)
			m["lu.hybrid.iter0_s"] = r.IterationSeconds[0]
			return m
		})}
	modes := []core.Mode{core.ProcessorOnly, core.FPGAOnly}
	for _, m := range modes {
		label := "lu." + m.String()
		calls = append(calls, luCall(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: m}, false,
			func(r *core.LUResult) map[string]float64 { return seconds(label, &r.Result) }))
	}
	calls = append(calls, fwCall(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: core.Hybrid}, true,
		func(r *core.FWResult) map[string]float64 {
			m := seconds("fw.hybrid", &r.Result)
			m["fw.hybrid.l1"], m["fw.hybrid.l2"] = float64(r.L1), float64(r.L2)
			return m
		}))
	for _, m := range modes {
		label := "fw." + m.String()
		calls = append(calls, fwCall(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: m}, false,
			func(r *core.FWResult) map[string]float64 { return seconds(label, &r.Result) }))
	}
	return append(calls,
		luCall(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid}, false,
			func(r *core.LUResult) map[string]float64 {
				return map[string]float64{"lu.bf1280_l3.iter0_s": r.IterationSeconds[0]}
			}),
		fwCall(core.FWConfig{N: 18432, B: 256, L1: 2, Mode: core.Hybrid}, false,
			func(r *core.FWResult) map[string]float64 {
				return map[string]float64{"fw.l1_2.iter_s": r.Seconds / float64(len(r.IterationSeconds))}
			}),
		kernelCall("core.mm_s", "core.RunMM", "mm.hybrid", func() (*core.Result, error) {
			r, err := core.RunMM(core.MMConfig{N: 6144, BF: -1, Mode: core.Hybrid})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}),
		kernelCall("core.chol_s", "core.RunCholesky", "chol.hybrid", func() (*core.Result, error) {
			r, err := core.RunCholesky(core.CholConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}),
		kernelCall("core.qr_s", "core.RunQR", "qr.hybrid", func() (*core.Result, error) {
			r, err := core.RunQR(core.QRConfig{N: 30000, B: 3000, BF: -1, Mode: core.Hybrid})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}),
		kernelCall("core.cg_s", "core.RunCG", "cg.hybrid", func() (*core.Result, error) {
			r, err := core.RunCG(core.CGConfig{N: cgN, RowsFPGA: -1, Mode: core.Hybrid, Seed: cgSeed})
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}),
	)
}

// replay is the traced paper-suite pass: the Headline configurations one
// core.Run* call at a time, each checked against the reference, with
// the two hybrid runs' telemetry digested by trace and analysis.
func (p *paperBench) replay(pr *probe) (passStats, error) {
	tr, led := pr.tr, pr.led
	id := fmt.Sprintf("paper-%d", pr.pass)
	var (
		st      passStats
		fresh   = make(map[string]float64)
		layerS  = make(map[string]float64)
		digests = make(map[string]float64)
		err     error
	)
	sim.InstallCounters(pr.ctr)
	st.wall = tr.span(0, "pass", id, func(passID int64) {
		for _, c := range paperCalls() {
			var rec *trace.Recorder
			if c.rec {
				rec = trace.NewRecorder()
			}
			var m map[string]float64
			var makespan float64
			var runErr error
			d := tr.span(passID, c.name, id, func(int64) { m, makespan, runErr = c.run(rec) })
			if runErr != nil {
				err = fmt.Errorf("paper-suite: %s: %w", c.name, runErr)
				return
			}
			layerS[c.layer] += d.Seconds()
			pr.hostNS += d.Nanoseconds()
			for k, v := range m {
				fresh[k] = v
			}
			if rec == nil {
				continue
			}
			label := "lu.hybrid"
			if c.layer == "core.fw_s" {
				label = "fw.hybrid"
			}
			digestSpans(tr, passID, id, label, rec, makespan, digests, fresh)
			if label == "lu.hybrid" {
				p.luSpans, p.luMakespan = rec.Spans(), makespan
			}
		}
		tr.span(passID, "exper.Table1", id, func(int64) {
			var t *exper.Table
			if t, err = exper.Table1(); err != nil {
				return
			}
			for _, row := range t.Rows {
				var v float64
				if _, err = fmt.Sscanf(row[2], "%f", &v); err != nil {
					return
				}
				fresh["table1."+row[1]+".latency_s"] = v
			}
		})
	})
	sim.InstallCounters(nil)
	if err != nil {
		return st, err
	}
	var bad []analysis.Delta
	st.attempted, bad = checkMetrics(p.ref, fresh)
	st.failed = len(bad)
	reportDeltas("paper-suite replay", bad)
	st.ops = paperSims
	p.last = fresh

	for name, s := range layerS {
		led.add(name, s)
	}
	for name, v := range digests {
		led.add(name, v)
	}

	// The CG operand on its own: matrix.RandomSPD at CG's size and seed.
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var a *matrix.Dense
	d := tr.span(0, "matrix.RandomSPD", id, func(int64) {
		a = matrix.RandomSPD(cgN, rand.New(rand.NewSource(cgSeed)))
	})
	runtime.ReadMemStats(&m1)
	if r, c := a.Dims(); r != cgN || c != cgN {
		return st, fmt.Errorf("paper-suite: RandomSPD gave %dx%d, want %dx%d", r, c, cgN, cgN)
	}
	led.add("matrix.random_spd_s", d.Seconds())
	led.add("matrix.operand_share", ratio(d.Seconds(), layerS["core.cg_s"]))
	led.add("matrix.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	return st, nil
}

// digestSpans times the telemetry digests Headline and the sweep run on
// a hybrid run's spans, checks them against the reference, and adds
// their host times to acc.
func digestSpans(tr *tracer, parent int64, id, label string, rec *trace.Recorder,
	makespan float64, acc, fresh map[string]float64) {
	var ov trace.Overlap
	acc["trace.overlap_ms"] += ms(tr.span(parent, "trace.ComputeOverlap", id, func(int64) {
		ov = trace.ComputeOverlap(rec.SpansView(), makespan)
	}))
	fresh[label+".overlap_efficiency"] = ov.Efficiency()
	var path []analysis.Hop
	acc["analysis.critical_path_ms"] += ms(tr.span(parent, "analysis.ExtractCriticalPath", id, func(int64) {
		path = analysis.ExtractCriticalPath(rec.Spans(), makespan)
	}))
	fresh[label+".critical_path_hops"] = float64(len(path))
	fresh[label+".critical_path_s"] = analysis.PathTotal(path)
	acc["analysis.classify_ms"] += ms(tr.span(parent, "analysis.ClassifyPhases", id, func(int64) {
		analysis.ClassifyPhases(rec.SpansView(), nil)
	}))
}

func (p *paperBench) verify() (int, int) { return 0, 0 }

// report prints the simulator's error against the paper beside the
// simulated numbers. It is informational and gates nothing.
func (p *paperBench) report(w io.Writer) {
	lu, fw := p.last["lu.hybrid.gflops"], p.last["fw.hybrid.gflops"]
	fmt.Fprintf(w, "paper error (not gated): LU %.2f vs %.1f GFLOPS (%+.1f%%), FW %.2f vs %.1f GFLOPS (%+.1f%%); "+
		"the paper's XD1 figures are the model's only hardware reference\n",
		lu, paperLUGFLOPS, 100*(lu/paperLUGFLOPS-1), fw, paperFWGFLOPS, 100*(fw/paperFWGFLOPS-1))
}

// writeSimSpans persists the hybrid LU run's simulated spans from the
// last traced pass in the trace package's JSONL format.
func (p *paperBench) writeSimSpans(dir string) (string, error) {
	if p.luSpans == nil {
		return "", nil
	}
	path := filepath.Join(dir, "paper-suite-lu-hybrid.spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = trace.WriteSpans(f, trace.Meta{App: "lu", Machine: "xd1", Label: "paper-suite lu.hybrid",
		Makespan: p.luMakespan}, p.luSpans)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

func (p *paperBench) close() {}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
