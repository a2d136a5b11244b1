package core

import (
	"math"
	"strings"
	"testing"

	"codesign/internal/fault"
)

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{
		"hybrid": Hybrid, "processor-only": ProcessorOnly,
		"cpu": ProcessorOnly, "fpga-only": FPGAOnly, "fpga": FPGAOnly,
	}
	for name, want := range cases {
		got, err := ParseMode(name)
		if err != nil || got != want {
			t.Fatalf("%s -> %v, %v", name, got, err)
		}
	}
	if _, err := ParseMode("turbo"); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// appDirect is one app's oracle: a small spec and the same run made
// through its Run* function directly, reduced to the fields the table
// must reproduce.
type appDirect struct {
	spec Spec
	run  func(Spec) (seconds, gflops float64, split Split, err error)
}

// appDirects covers every app in the table at a fast size.
var appDirects = map[string]appDirect{
	"lu": {Spec{N: 120, B: 20, PEs: 4, BF: -1, L: -1, Functional: true, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunLU(LUConfig{N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L, Functional: s.Functional, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, BF: r.BF, BP: r.BP, L: r.L}, nil
		}},
	"fw": {Spec{N: 96, B: 8, PEs: 4, L1: -1, Functional: true, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunFW(FWConfig{N: s.N, B: s.B, PEs: s.PEs, L1: s.L1, Functional: s.Functional, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, L1: r.L1, L2: r.L2}, nil
		}},
	"mm": {Spec{N: 96, PEs: 4, BF: -1, Functional: true, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunMM(MMConfig{N: s.N, PEs: s.PEs, BF: s.BF, Functional: s.Functional, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, BF: r.BF, BP: r.BP}, nil
		}},
	"spmv": {Spec{N: 256, PEs: 4, BF: -1, Density: 0.02, RHS: 4, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunSpMM(SpMVConfig{N: s.N, PEs: s.PEs, RowsFPGA: s.BF, Density: s.Density, RHS: s.RHS, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, BF: r.RowsFPGA, BP: r.RowsCPU}, nil
		}},
	"chol": {Spec{N: 120, B: 20, PEs: 4, BF: -1, L: -1, Functional: true, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunCholesky(CholConfig{N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, L: s.L, Functional: s.Functional, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, BF: r.BF, BP: r.BP, L: r.L}, nil
		}},
	"qr": {Spec{N: 120, B: 20, PEs: 4, BF: -1, Functional: true, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunQR(QRConfig{N: s.N, B: s.B, PEs: s.PEs, BF: s.BF, Functional: s.Functional, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, BF: r.BF, BP: r.BP}, nil
		}},
	"cg": {Spec{N: 128, BF: -1, Seed: 1},
		func(s Spec) (float64, float64, Split, error) {
			r, err := RunCG(CGConfig{N: s.N, PEs: s.PEs, RowsFPGA: s.BF, Seed: s.Seed})
			if err != nil {
				return 0, 0, Split{}, err
			}
			return r.Seconds, r.GFLOPS, Split{K: r.K, BF: r.RowsFPGA, BP: r.RowsCPU}, nil
		}},
}

func TestAppTableMatchesDirectRuns(t *testing.T) {
	names := AppNames()
	if len(names) != len(appDirects) {
		t.Fatalf("table has %d apps %v, oracle covers %d", len(names), names, len(appDirects))
	}
	for _, name := range names {
		d, ok := appDirects[name]
		if !ok {
			t.Fatalf("no direct oracle for table app %q", name)
		}
		got, err := Simulate(name, d.spec)
		if err != nil {
			t.Fatalf("%s via table: %v", name, err)
		}
		seconds, gflops, split, err := d.run(d.spec)
		if err != nil {
			t.Fatalf("%s direct: %v", name, err)
		}
		if math.Float64bits(got.Seconds) != math.Float64bits(seconds) ||
			math.Float64bits(got.GFLOPS) != math.Float64bits(gflops) {
			t.Fatalf("%s: table %.17g s %.17g GFLOPS, direct %.17g s %.17g GFLOPS",
				name, got.Seconds, got.GFLOPS, seconds, gflops)
		}
		if got.Split != split {
			t.Fatalf("%s: table split %+v, direct %+v", name, got.Split, split)
		}
		wantApp := name
		if d.spec.RHS > 1 {
			wantApp = "spmm"
		}
		if got.App != wantApp || got.Title == "" || len(got.Report) == 0 {
			t.Fatalf("%s: app %q, title %q, %d report lines", name, got.App, got.Title, len(got.Report))
		}
		if (got.Expected == nil) != (name == "cg") {
			t.Fatalf("%s: expected bindings %v", name, got.Expected)
		}
	}
}

func TestAppNamesUniqueAndUnknownRejected(t *testing.T) {
	seen := map[string]bool{}
	for _, name := range AppNames() {
		if seen[name] {
			t.Fatalf("app %q registered twice", name)
		}
		seen[name] = true
	}
	_, err := LookupApp("fft")
	if err == nil {
		t.Fatal("unknown app accepted")
	}
	for _, name := range AppNames() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("unknown-app error %q does not list %q", err, name)
		}
	}
	if _, err := Simulate("fft", Spec{}); err == nil {
		t.Fatal("Simulate accepted an unknown app")
	}
}

func TestAppFaultSupport(t *testing.T) {
	if got := strings.Join(FaultApps(), ","); got != "lu,fw,spmv" {
		t.Fatalf("fault-capable apps = %s, want lu,fw,spmv", got)
	}
	for _, name := range AppNames() {
		app, err := LookupApp(name)
		if err != nil {
			t.Fatal(err)
		}
		d := appDirects[name]
		spec := d.spec
		spec.Functional = false // faults and functional checking are exclusive
		spec.Faults = mustInjector(t, &fault.Spec{}, 6)
		_, err = app.Run(spec)
		if app.Faults {
			if err != nil {
				t.Fatalf("%s rejected an empty fault spec: %v", name, err)
			}
			continue
		}
		if err == nil {
			t.Fatalf("%s silently accepted a fault injector", name)
		}
		if app.CheckFaults() == nil || !strings.Contains(err.Error(), "lu, fw, spmv") {
			t.Fatalf("%s: fault error %q does not name the supported apps", name, err)
		}
	}
}
