package exper

import (
	"fmt"
	"io"
	"strings"

	"codesign/internal/core"
	"codesign/internal/cpu"
	"codesign/internal/machine"
	"codesign/internal/trace"
)

// Table is one regenerated result set.
type Table struct {
	// ID is the short name used to select the experiment on the CLI.
	ID string
	// Title is the human-readable headline printed above the table.
	Title string
	// Header labels the columns.
	Header []string
	// Rows holds the formatted cells, one slice per table row.
	Rows [][]string
	// Notes are free-form footnotes printed after the rows.
	Notes []string
}

// Write renders the table as aligned text.
func (t *Table) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(line(t.Header)))); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// WriteCSV renders the table as CSV.
func (t *Table) WriteCSV(w io.Writer) error {
	rows := append([][]string{t.Header}, t.Rows...)
	for _, r := range rows {
		clean := make([]string, len(r))
		for i, c := range r {
			clean[i] = strings.ReplaceAll(c, ",", ";")
		}
		if _, err := fmt.Fprintln(w, strings.Join(clean, ",")); err != nil {
			return err
		}
	}
	return nil
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// Table1 regenerates Table 1: the ACML routines for the LU panel tasks
// and their latencies at b = 3000.
func Table1() (*Table, error) {
	rows := cpu.Table1(cpu.Opteron22(), 3000)
	t := &Table{
		ID:     "table1",
		Title:  "Routines and latencies for LU panel operations (b=3000)",
		Header: []string{"operation", "routine", "latency_s", "paper_s"},
		Notes:  []string{"modeled from the Opteron's sustained per-routine rates"},
	}
	paper := []float64{4.9, 7.1, 7.1}
	for i, r := range rows {
		t.Rows = append(t.Rows, []string{r.Operation, r.Routine, f2(r.LatencyS), f1(paper[i])})
	}
	return t, nil
}

// Fig5 regenerates Figure 5: latency of one b×b block multiplication
// versus bf (b=3000, p=6), simulated at stripe granularity.
func Fig5() (*Table, error) {
	t := &Table{
		ID:     "fig5",
		Title:  "Latency of one 3000x3000 block matrix multiplication vs bf (p=6)",
		Header: []string{"bf", "bp", "latency_s"},
		Notes: []string{
			"paper: latency decreases until bf=1280, then the FPGA is overloaded",
		},
	}
	for bf := 0; bf <= 3000; bf += 200 {
		r, err := core.RunOpMM(machine.XD1(), 3000, 8, bf)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(bf), fmt.Sprint(3000 - bf), f3(r.Seconds)})
	}
	return t, nil
}

// Fig6 regenerates Figure 6: latency of the 0th LU iteration versus the
// pipeline depth l (n=30000, b=3000, bf=1280).
func Fig6() (*Table, error) {
	t := &Table{
		ID:     "fig6",
		Title:  "Latency of the 0th LU iteration vs l (n=30000, bf=1280)",
		Header: []string{"l", "iteration0_s", "total_s"},
		Notes: []string{
			"paper: minimum at l=3; increase past the optimum 'not noticeable until l=5'",
		},
	}
	for l := 0; l <= 5; l++ {
		r, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: l, Mode: core.Hybrid})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(l), f1(r.IterationSeconds[0]), f1(r.Seconds)})
	}
	return t, nil
}

// Fig7 regenerates Figure 7: latency of one Floyd-Warshall iteration
// versus l1 (b=256, n=18432, p=6).
func Fig7() (*Table, error) {
	t := &Table{
		ID:     "fig7",
		Title:  "Latency of one Floyd-Warshall iteration vs l1 (b=256, n=18432)",
		Header: []string{"l1", "l2", "iteration_s"},
		Notes: []string{
			"paper: latency falls until l1=2, rises at l1=1; l1=0 (FPGA alone) beats several shared points",
		},
	}
	for l1 := 12; l1 >= 0; l1-- {
		r, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: l1, Mode: core.Hybrid})
		if err != nil {
			return nil, err
		}
		iter := r.Seconds / float64(len(r.IterationSeconds))
		t.Rows = append(t.Rows, []string{fmt.Sprint(l1), fmt.Sprint(12 - l1), f3(iter)})
	}
	return t, nil
}

// Fig8 regenerates Figure 8: LU GFLOPS versus the block count n/b
// (b = 3000).
func Fig8() (*Table, error) {
	t := &Table{
		ID:     "fig8",
		Title:  "GFLOPS of LU decomposition vs n/b (b=3000)",
		Header: []string{"n_over_b", "n", "gflops"},
		Notes:  []string{"paper: performance grows with n/b, reaching 20 GFLOPS at n/b=10"},
	}
	for nb := 2; nb <= 10; nb++ {
		r, err := core.RunLU(core.LUConfig{N: nb * 3000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{fmt.Sprint(nb), fmt.Sprint(nb * 3000), f2(r.GFLOPS)})
	}
	return t, nil
}

// Fig9 regenerates Figure 9: hybrid versus the two baselines for both
// applications. full selects the paper's headline FW size (n=92160, a
// multi-minute simulation); otherwise n=18432 is used, which Section
// 6.2 shows is throughput-equivalent.
func Fig9(full bool) (*Table, error) {
	t := &Table{
		ID:     "fig9",
		Title:  "Performance comparison with baseline designs (GFLOPS)",
		Header: []string{"app", "design", "gflops", "paper_gflops", "seconds"},
		Notes: []string{
			"paper LU: 20 hybrid, 1.3X over processor-only, 2X over FPGA-only",
			"paper FW: 6.6 hybrid, 5.8X over processor-only, 1.15X over FPGA-only",
		},
	}
	paperLU := map[core.Mode]string{core.Hybrid: "20", core.ProcessorOnly: "15.4", core.FPGAOnly: "10"}
	for _, m := range []core.Mode{core.Hybrid, core.ProcessorOnly, core.FPGAOnly} {
		r, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: m})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"lu", m.String(), f2(r.GFLOPS), paperLU[m], f1(r.Seconds)})
	}
	nFW := 18432
	if full {
		nFW = 92160
	}
	paperFW := map[core.Mode]string{core.Hybrid: "6.6", core.ProcessorOnly: "1.14", core.FPGAOnly: "5.74"}
	for _, m := range []core.Mode{core.Hybrid, core.ProcessorOnly, core.FPGAOnly} {
		r, err := core.RunFW(core.FWConfig{N: nFW, B: 256, L1: -1, Mode: m})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{"fw", m.String(), f2(r.GFLOPS), paperFW[m], f1(r.Seconds)})
	}
	return t, nil
}

// Prediction regenerates the Section 6.2 model-accuracy study: measured
// throughput as a fraction of the Section 4.5 prediction.
func Prediction(full bool) (*Table, error) {
	t := &Table{
		ID:     "prediction",
		Title:  "Measured vs model-predicted performance (Section 4.5 / 6.2)",
		Header: []string{"app", "measured_gflops", "predicted_gflops", "ratio", "paper_ratio", "overlap_eff"},
		Notes: []string{
			"paper: LU achieves ~86% of prediction (atomic ACML routines serialize communication); FW ~96%",
			"overlap_eff: fraction of data-movement time hidden behind compute (1.0 = fully overlapped)",
		},
	}
	// overlapEff reports the telemetry overlap efficiency: the gap to a
	// 1.0 ratio is exactly the exposed (unhidden) Tmem+Tcomm the paper
	// attributes to atomic library routines. It digests the run's span
	// recorder in place, which yields the Overlap a telemetry Summary
	// would carry without building the rest of one.
	rec := trace.NewRecorder()
	overlapEff := func(seconds float64) string {
		return f2(trace.ComputeOverlap(rec.SpansView(), seconds).Efficiency())
	}
	lu, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid, Observer: rec})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"lu", f2(lu.GFLOPS), f2(lu.Prediction.GFLOPS),
		f2(lu.GFLOPS / lu.Prediction.GFLOPS), "0.86", overlapEff(lu.Seconds)})
	nFW := 18432
	if full {
		nFW = 92160
	}
	rec.Reset()
	fw, err := core.RunFW(core.FWConfig{N: nFW, B: 256, L1: -1, Mode: core.Hybrid, Observer: rec})
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"fw", f2(fw.GFLOPS), f2(fw.Prediction.GFLOPS),
		f2(fw.GFLOPS / fw.Prediction.GFLOPS), "0.96", overlapEff(fw.Seconds)})
	return t, nil
}

// Ablations runs the design-choice studies DESIGN.md calls out that are
// not paper figures: stripe-overlap off, whole-task LU, interruptible
// panel routines, tree broadcast.
func Ablations() (*Table, error) {
	t := &Table{
		ID:     "ablations",
		Title:  "Design-choice ablations (LU, n=30000, b=3000)",
		Header: []string{"variant", "seconds", "gflops", "vs_base"},
	}
	base, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid})
	if err != nil {
		return nil, err
	}
	add := func(name string, r *core.LUResult) {
		t.Rows = append(t.Rows, []string{name, f1(r.Seconds), f2(r.GFLOPS),
			fmt.Sprintf("%+.1f%%", (r.Seconds/base.Seconds-1)*100)})
	}
	add("base (hybrid, overlap on)", base)
	noOv, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid, DisableStripeOverlap: true})
	if err != nil {
		return nil, err
	}
	add("stripe overlap disabled", noOv)
	intr, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 3, Mode: core.Hybrid, InterruptibleRoutines: true})
	if err != nil {
		return nil, err
	}
	add("interruptible panel routines", intr)
	noPipe, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: 1280, L: 0, Mode: core.Hybrid})
	if err != nil {
		return nil, err
	}
	add("no panel/opMM pipelining (l=0)", noPipe)
	return t, nil
}

// All regenerates every experiment (Fig9/prediction at reduced FW size).
func All() ([]*Table, error) {
	var out []*Table
	for _, f := range []func() (*Table, error){
		Table1, Fig5, Fig6, Fig7, Fig8,
		func() (*Table, error) { return Fig9(false) },
		func() (*Table, error) { return Prediction(false) },
		Ablations, Extensions, SparseRegimes, Sensitivity, DesignSpace,
	} {
		t, err := f()
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}
