package serve

import (
	"context"
	"math"
	"testing"

	"codesign/internal/core"
	"codesign/internal/machine"
	"codesign/internal/obs"
	"codesign/internal/sweep"
)

// TestModelSimConsistencyAllApps runs every app with a closed-form model
// at reduced sizes on all four presets, PEs in {0, 2, 8} and every mode
// through the sweep evaluator under both methods and through
// Service.Solve. Both methods read the design, the partition and the
// Section 4.5 prediction from one core plan, so those fields must agree
// bit for bit, and serve must return exactly what the evaluator does.
func TestModelSimConsistencyAllApps(t *testing.T) {
	sizes := map[string]struct {
		n, b    int
		density float64
	}{
		"lu":   {360, 120, 0},
		"chol": {360, 120, 0},
		"qr":   {360, 120, 0},
		// No preset's largest FW array divides b=36: PEs=0 shrinks it.
		"fw": {864, 36, 0},
		// Includes the paper's XD1 matmul array at k=8, whose placed
		// clock does not survive a round trip through MHz.
		"mm":   {480, 0, 0},
		"spmv": {512, 0, 0.05},
	}
	ev := sweep.NewEvaluator(0)
	svc := NewService(Config{}, obs.NewRegistry())
	defer svc.Close()
	ctx := context.Background()
	var checked, feasible int
	for _, app := range core.AppNames() {
		sz, ok := sizes[app]
		if !ok {
			if a, _ := core.LookupApp(app); a.CheckModel() == nil {
				t.Fatalf("app %q has a closed-form model but no consistency size", app)
			}
			continue
		}
		for _, mach := range machine.PresetNames() {
			for _, pes := range []int{0, 2, 8} {
				for _, mode := range []string{"hybrid", "processor-only", "fpga-only"} {
					pt := sweep.Point{App: app, Machine: mach, Mode: mode, N: sz.n, B: sz.b,
						Density: sz.density, PEs: pes, BF: -1, L: -1}
					model := ev.Evaluate(pt, sweep.MethodModel)
					sim := ev.Evaluate(pt, sweep.MethodSim)
					checked++
					if model.OK != sim.OK || model.Err != sim.Err {
						t.Fatalf("%+v: model ok=%v err=%q, sim ok=%v err=%q", pt, model.OK, model.Err, sim.OK, sim.Err)
					}
					if model.OK {
						feasible++
						assertSamePlan(t, pt, model, sim)
					}
					for method, want := range map[string]sweep.Outcome{sweep.MethodModel: model, sweep.MethodSim: sim} {
						resp, err := svc.Solve(ctx, SolveRequest{App: app, Machine: mach, Mode: mode,
							N: sz.n, B: sz.b, Density: sz.density, PEs: pes, Method: method})
						if err != nil {
							t.Fatalf("%+v %s: Solve: %v", pt, method, err)
						}
						if resp.Outcome != want {
							t.Fatalf("%+v %s: serve %+v, evaluator %+v", pt, method, resp.Outcome, want)
						}
					}
					if app == "fw" && pes == 0 && model.OK {
						cfg, err := machine.Preset(mach)
						if err != nil {
							t.Fatal(err)
						}
						m, _ := core.ParseMode(mode)
						r, err := core.Simulate("fw", core.Spec{Machine: cfg, N: sz.n, B: sz.b, L1: -1, Mode: m})
						if err != nil {
							t.Fatalf("%+v: core.Simulate: %v", pt, err)
						}
						if r.Split.K != model.K {
							t.Errorf("%+v: core.Simulate k=%d, sweep k=%d", pt, r.Split.K, model.K)
						}
					}
				}
			}
		}
	}
	t.Logf("%d of %d points feasible", feasible, checked)
	if feasible < checked/2 {
		t.Fatalf("only %d of %d points feasible", feasible, checked)
	}
}

// assertSamePlan checks that the plan-derived fields of a model and a
// sim outcome are bit-identical.
func assertSamePlan(t *testing.T, pt sweep.Point, model, sim sweep.Outcome) {
	t.Helper()
	floats := []struct {
		name     string
		got, sim float64
	}{
		{"pred_gflops", model.PredictedGFLOPS, sim.PredictedGFLOPS},
		{"ff_mhz", model.FfMHz, sim.FfMHz},
		{"bd_gbps", model.BdGBps, sim.BdGBps},
	}
	for _, f := range floats {
		if math.Float64bits(f.got) != math.Float64bits(f.sim) {
			t.Errorf("%+v: %s model %v, sim %v", pt, f.name, f.got, f.sim)
		}
	}
	ints := []struct {
		name     string
		got, sim int
	}{
		{"k", model.K, sim.K}, {"bf", model.BF, sim.BF}, {"bp", model.BP, sim.BP},
		{"l", model.L, sim.L}, {"l1", model.L1, sim.L1}, {"l2", model.L2, sim.L2},
	}
	for _, f := range ints {
		if f.got != f.sim {
			t.Errorf("%+v: %s model %d, sim %d", pt, f.name, f.got, f.sim)
		}
	}
}
