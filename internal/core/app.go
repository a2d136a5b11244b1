package core

import (
	"fmt"
	"strings"

	"codesign/internal/fault"
	"codesign/internal/machine"
	"codesign/internal/model"
	"codesign/internal/obs"
	"codesign/internal/sim"
)

// ParseMode maps a design name to its Mode: "hybrid",
// "processor-only" (or "cpu") and "fpga-only" (or "fpga").
func ParseMode(name string) (Mode, error) {
	switch name {
	case "hybrid":
		return Hybrid, nil
	case "processor-only", "cpu":
		return ProcessorOnly, nil
	case "fpga-only", "fpga":
		return FPGAOnly, nil
	default:
		return 0, fmt.Errorf("unknown mode %q (want hybrid, processor-only or fpga-only)", name)
	}
}

// Spec is the app-independent description of one simulated run: the
// union of the knobs the per-app Run* configs take. Every Run* converts
// its config to a Spec once; each app's runner reads the fields it uses
// and ignores the rest.
type Spec struct {
	// Machine is the system; zero value means one Cray XD1 chassis.
	Machine machine.Config
	// N and B are the problem and block sizes (B is unused by mm, spmv
	// and cg).
	N, B int
	// PEs is the FPGA design size; 0 means the largest that fits.
	PEs int
	// BF is the FPGA's row share: result rows per stripe for lu, mm,
	// chol and qr, RowsFPGA for spmv and cg. -1 solves the model.
	BF int
	// L is the lu/chol panel pipeline depth; -1 solves Equation (5).
	L int
	// L1 is fw's processor ops per phase; -1 solves Equation (6).
	L1 int
	// Density is the spmv operator's nonzero density (0 = dense).
	Density float64
	// RHS is the spmv right-hand-side count; above 1 runs RunSpMM.
	RHS int
	// Mode selects hybrid or a baseline.
	Mode Mode
	// Functional carries real data through the run and verifies it.
	Functional bool
	// Seed drives input generation.
	Seed int64
	// Observer, when non-nil, receives the structured telemetry stream.
	Observer sim.Observer
	// Telemetry attaches a span digest to the result.
	Telemetry bool
	// Trace, when non-nil, receives every engine event.
	Trace func(t float64, proc, action string)
	// Faults, when non-nil, injects faults; only apps whose table
	// entry declares Faults accept it.
	Faults *fault.Injector
	// Metrics, when non-nil, receives live core_* samples (lu and fw).
	Metrics *obs.Registry
}

// Split is a run's resolved workload partition. Fields an app does not
// partition on stay zero.
type Split struct {
	// K is the PE (or MAC lane) count of the installed design.
	K int
	// BF and BP are the FPGA and processor row shares.
	BF, BP int
	// L is the panel pipeline depth.
	L int
	// L1 and L2 are fw's processor and FPGA ops per phase.
	L1, L2 int
}

// AppRun is the outcome of one run dispatched through the app table.
type AppRun struct {
	// Result is the app-independent outcome.
	*Result
	// Prediction is the Section 4.5 forecast at the resolved split
	// (zero for cg, which has none).
	Prediction model.Prediction
	// Expected maps each partitioned phase to the binding the model
	// predicts for it (nil for cg).
	Expected map[string]model.Binding
	// Split is the resolved partition.
	Split Split
	// Title names the application in reports.
	Title string
	// Report holds the app-specific report lines, printed after the
	// common result block.
	Report []string
}

// App is one entry of the application table: every simulated workload
// with its default sizes, its plan stage and its Spec-taking runner, the
// one its Run* calls.
type App struct {
	// Name is the app's CLI and sweep name.
	Name string
	// Faults reports whether the app accepts a fault injector; the
	// plan stage's faultPolicy says how its run stage treats one.
	Faults bool
	// N and B are the app's default problem and block sizes (the
	// paper's for lu and fw); B is 0 for apps without block structure.
	N, B int
	plan *planner
	run  func(Spec) (*AppRun, error)
}

// apps is the application table, in report order.
var apps = []App{
	{Name: "lu", Faults: true, N: 30000, B: 3000, plan: &luPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runLU(s, luAblation{})
		if err != nil {
			return nil, err
		}
		bind, _ := r.Model.StripeBinding(r.BF)
		return &AppRun{Result: &r.Result, Prediction: r.Prediction,
			Expected: map[string]model.Binding{"opmm": bind},
			Split:    Split{K: r.K, BF: r.BF, BP: r.BP, L: r.L},
			Title:    "block LU decomposition",
			Report: []string{
				fmt.Sprintf("partition:         bf=%d bp=%d (k=%d PEs), pipeline l=%d", r.BF, r.BP, r.K, r.L),
				predictionLine(&r.Result, r.Prediction),
			}}, nil
	}},
	{Name: "fw", Faults: true, N: 18432, B: 256, plan: &fwPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runFW(s, 0)
		if err != nil {
			return nil, err
		}
		bind, _ := r.Model.PhaseBinding(r.L1, r.L2)
		return &AppRun{Result: &r.Result, Prediction: r.Prediction,
			Expected: map[string]model.Binding{"op": bind},
			Split:    Split{K: r.K, L1: r.L1, L2: r.L2},
			Title:    "blocked Floyd-Warshall (all-pairs shortest paths)",
			Report: []string{
				fmt.Sprintf("partition:         l1=%d processor ops, l2=%d FPGA ops per phase (k=%d PEs)", r.L1, r.L2, r.K),
				predictionLine(&r.Result, r.Prediction),
			}}, nil
	}},
	{Name: "mm", N: 6144, plan: &mmPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runMM(s)
		if err != nil {
			return nil, err
		}
		bind, _ := r.Model.StripeBinding(r.BF)
		return &AppRun{Result: &r.Result, Prediction: r.Prediction,
			Expected: map[string]model.Binding{"stripe": bind},
			Split:    Split{K: r.K, BF: r.BF, BP: r.BP},
			Title:    "hybrid matrix multiplication (Eq. 1)",
			Report: []string{
				fmt.Sprintf("partition:         bf=%d bp=%d result rows per stripe (k=%d PEs)", r.BF, r.BP, r.K),
				predictionLine(&r.Result, r.Prediction),
			}}, nil
	}},
	{Name: "spmv", Faults: true, N: 2048, plan: &spmvPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runMV(s)
		if err != nil {
			return nil, err
		}
		bind, _ := r.Model.StripeBinding(r.RowsFPGA)
		phase, title, arrangement := "stream", "sparse matrix-vector product (Eq. 1 row split)", "streamed per apply"
		if r.Resident {
			phase, arrangement = "apply", fmt.Sprintf("SRAM-resident, load %.3gs", r.LoadSeconds)
		}
		if r.Applies > 1 {
			title = "sparse matrix-multi-vector product (SpMM, Eq. 1 per apply)"
		}
		return &AppRun{Result: &r.Result, Prediction: r.Prediction,
			Expected: map[string]model.Binding{phase: bind},
			Split:    Split{K: r.K, BF: r.RowsFPGA, BP: r.RowsCPU},
			Title:    title,
			Report: []string{
				fmt.Sprintf("operator:          n=%d nnz=%d (%.4g words/row CSR), %s",
					r.N, r.NNZ, float64(r.Words)/float64(r.N), arrangement),
				fmt.Sprintf("row split:         %d rows to FPGA, %d to processor (k=%d MACs), %d applies",
					r.RowsFPGA, r.RowsCPU, r.K, r.Applies),
				predictionLine(&r.Result, r.Prediction),
			}}, nil
	}},
	{Name: "chol", N: 30000, B: 3000, plan: &cholPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runCholesky(s)
		if err != nil {
			return nil, err
		}
		bind, _ := r.Model.StripeBinding(r.BF)
		return &AppRun{Result: &r.Result, Prediction: r.Prediction,
			Expected: map[string]model.Binding{"opmm": bind},
			Split:    Split{K: r.K, BF: r.BF, BP: r.BP, L: r.L},
			Title:    "block Cholesky factorization (extension)",
			Report: []string{
				fmt.Sprintf("partition:         bf=%d bp=%d (k=%d PEs), pipeline l=%d", r.BF, r.BP, r.K, r.L),
				predictionLine(&r.Result, r.Prediction),
			}}, nil
	}},
	{Name: "qr", N: 30000, B: 3000, plan: &qrPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runQR(s)
		if err != nil {
			return nil, err
		}
		bind, _ := r.Model.StripeBinding(r.BF)
		return &AppRun{Result: &r.Result, Prediction: r.Prediction,
			Expected: map[string]model.Binding{"update": bind},
			Split:    Split{K: r.K, BF: r.BF, BP: r.BP},
			Title:    "block Householder QR factorization (extension)",
			Report: []string{
				fmt.Sprintf("partition:         bf=%d bp=%d (k=%d PEs)", r.BF, r.BP, r.K),
				predictionLine(&r.Result, r.Prediction),
			}}, nil
	}},
	{Name: "cg", N: 1024, plan: &cgPlan, run: func(s Spec) (*AppRun, error) {
		r, err := runCG(s, 0)
		if err != nil {
			return nil, err
		}
		return &AppRun{Result: &r.Result,
			Split: Split{K: r.K, BF: r.RowsFPGA, BP: r.RowsCPU},
			Title: "conjugate gradient (extension, after [9])",
			Report: []string{
				fmt.Sprintf("row split:         %d rows to FPGA (SRAM-resident), %d to processor (k=%d MACs)",
					r.RowsFPGA, r.RowsCPU, r.K),
				fmt.Sprintf("solve:             %d iterations, converged=%v, SRAM load %.4fs",
					r.Iterations, r.Converged, r.LoadSeconds),
			}}, nil
	}},
}

// predictionLine reports the Section 4.5 forecast next to the
// measured throughput.
func predictionLine(r *Result, p model.Prediction) string {
	return fmt.Sprintf("model prediction:  %.3f GFLOPS (measured/predicted = %.1f%%)",
		p.GFLOPS, 100*r.GFLOPS/p.GFLOPS)
}

// AppNames returns the table's app names in report order.
func AppNames() []string { return names(func(App) bool { return true }) }

// FaultApps returns the names of the apps that accept a fault injector.
func FaultApps() []string { return names(func(a App) bool { return a.Faults }) }

// names lists the table's apps that satisfy keep.
func names(keep func(App) bool) []string {
	var out []string
	for _, a := range apps {
		if keep(a) {
			out = append(out, a.Name)
		}
	}
	return out
}

// LookupApp returns the table entry for name, or an error listing the
// known apps.
func LookupApp(name string) (App, error) {
	for _, a := range apps {
		if a.Name == name {
			return a, nil
		}
	}
	return App{}, fmt.Errorf("unknown app %q (want one of %s)", name, strings.Join(AppNames(), ", "))
}

// CheckFaults returns nil when the app accepts a fault injector and
// otherwise an error naming the apps that do.
func (a App) CheckFaults() error {
	if a.Faults {
		return nil
	}
	return fmt.Errorf("fault injection supports %s, not %q", strings.Join(FaultApps(), ", "), a.Name)
}

// Sizes returns n and b with a zero replaced by the entry's default
// size. Sweep points and the CLIs' -n/-b flags fill through it.
func (a App) Sizes(n, b int) (int, int) {
	if n == 0 {
		n = a.N
	}
	if b == 0 {
		b = a.B
	}
	return n, b
}

// Plan resolves the app's design model at s: the PE count, placement,
// model parameters, partition and Section 4.5 prediction, solving
// through m (nil solves directly). Sentinel sizes are not defaulted;
// callers fill N and B through Sizes first.
func (a App) Plan(s Spec, m Memo) (Plan, error) { return a.plan.plan(s, m) }

// CheckModel returns nil when the app has a closed-form model and
// otherwise an error saying why it has none.
func (a App) CheckModel() error {
	if a.plan.model != nil {
		return nil
	}
	return fmt.Errorf("%s has no closed-form model: %s", a.Name, a.plan.noModel)
}

// Run simulates the app as configured by s. A non-nil s.Faults is an
// error for an app without fault support, never silently dropped.
func (a App) Run(s Spec) (*AppRun, error) {
	if s.Faults != nil {
		if err := a.CheckFaults(); err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
	}
	return a.run(s)
}

// Simulate looks up the named app and runs it as configured by s.
func Simulate(name string, s Spec) (*AppRun, error) {
	a, err := LookupApp(name)
	if err != nil {
		return nil, err
	}
	return a.Run(s)
}
