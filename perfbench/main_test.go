package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"codesign/internal/analysis"
	"codesign/internal/sim"
	"codesign/internal/sweep"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestSameSeedSameDigests(t *testing.T) {
	if planDigest(buildPlan(7)) != planDigest(buildPlan(7)) {
		t.Error("plan digest differs for the same seed")
	}
	if planDigest(buildPlan(7)) == planDigest(buildPlan(8)) {
		t.Error("plan digest is the same for seeds 7 and 8")
	}
	if gridDigest(sliceGrid(7)) != gridDigest(sliceGrid(7)) {
		t.Error("slice grid digest differs for the same seed")
	}
	if gridDigest(sliceGrid(7)) == gridDigest(sliceGrid(8)) {
		t.Error("slice grid digest is the same for seeds 7 and 8")
	}
	if gridDigest(mmGrid()) != gridDigest(mmGrid()) {
		t.Error("mm grid digest is not stable")
	}
}

func TestMetricNamesValidAndUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, w := range workloadNames {
		if !nameRE.MatchString(w) || seen[w] {
			t.Errorf("workload name %q invalid or repeated", w)
		}
		seen[w] = true
	}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q invalid or repeated", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: invalid unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

func TestPerLayerMetricsDeclareWhatTheyMove(t *testing.T) {
	e2e := map[string]bool{}
	for _, m := range endToEnd {
		e2e[m.Name] = true
	}
	workload := map[string]bool{}
	for _, w := range workloadNames {
		workload[w] = true
	}
	for _, m := range perLayer {
		if len(m.Moves) == 0 {
			t.Errorf("%s declares no end-to-end metric it should move", m.Name)
		}
		for _, mv := range m.Moves {
			if !e2e[mv.Metric] || !workload[mv.Workload] {
				t.Errorf("%s moves unknown %s on %s", m.Name, mv.Metric, mv.Workload)
			}
		}
		if len(m.Home) == 0 {
			t.Errorf("%s has no workload that measures it", m.Name)
		}
		for _, w := range append(append([]string(nil), m.Home...), m.Steady...) {
			if !workload[w] {
				t.Errorf("%s names unknown workload %s", m.Name, w)
			}
		}
	}
}

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the catalog %d", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q with why %q", i, w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the catalog %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		c := endToEnd[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better || m.Bound != c.Bound {
			t.Errorf("end_to_end[%d] = %+v, catalog %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 || m.Bound > endToEnd[0].Bound {
			t.Errorf("%s: bound %g outside (0, setup_s bound]", m.Name, m.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Errorf("first end-to-end metric is %+v, want setup_s", endToEnd[0])
	}
	for i, m := range b.PerLayer {
		c := perLayer[i]
		if m.Name != c.Name || m.Unit != c.Unit || m.Better != c.Better {
			t.Errorf("per_layer[%d] = %+v, catalog %+v", i, m, c)
		}
	}
}

// writeBaseline writes b to a temporary file and returns its path.
func writeBaseline(t *testing.T, b *analysis.Baseline) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := b.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestPaperSuiteMatchesBaselineAndFailsPerturbed(t *testing.T) {
	path := filepath.Join("..", "BENCH_baseline.json")
	b, err := openPaper(options{baseline: path})
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || st.attempted == 0 {
		t.Fatalf("Headline against %s: %d of %d checks failed", path, st.failed, st.attempted)
	}

	ref, err := analysis.ReadBaselineFile(path)
	if err != nil {
		t.Fatal(err)
	}
	ref.Set("lu.hybrid.gflops", math.Nextafter(ref.Metrics["lu.hybrid.gflops"], 0))
	b, err = openPaper(options{baseline: writeBaseline(t, ref)})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = b.pass(nil); err != nil || st.failed != 1 {
		t.Errorf("one-ulp perturbed baseline: %d failed checks (err %v), want 1", st.failed, err)
	}

	fresh := map[string]float64{"lu.hybrid.gflops": ref.Metrics["lu.hybrid.gflops"]}
	if _, bad := checkMetrics(ref, fresh); len(bad) != 0 {
		t.Errorf("replay check of an equal value: %v", bad)
	}
	fresh["lu.hybrid.gflops"] = math.Nextafter(fresh["lu.hybrid.gflops"], 0)
	if _, bad := checkMetrics(ref, fresh); len(bad) != 1 {
		t.Errorf("replay check of a perturbed value: %v, want one delta", bad)
	}
}

func TestPaperReplayMatchesBaseline(t *testing.T) {
	b, err := openPaper(options{baseline: filepath.Join("..", "BENCH_baseline.json")})
	if err != nil {
		t.Fatal(err)
	}
	pr := &probe{tr: newTracer(), led: make(ledger), ctr: &sim.Counters{}}
	st, err := b.pass(pr)
	sim.InstallCounters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || st.attempted < 30 {
		t.Errorf("replay: %d of %d checks failed", st.failed, st.attempted)
	}
	for _, name := range []string{"core.lu_s", "core.cg_s", "trace.overlap_ms", "matrix.random_spd_s"} {
		if _, ok := pr.led.value(name); !ok {
			t.Errorf("replay did not measure %s", name)
		}
	}
}

func TestFrontierCheckFailsPerturbed(t *testing.T) {
	var ref frontierRef
	if err := json.Unmarshal(mmFrontierJSON, &ref); err != nil {
		t.Fatal(err)
	}
	if ref.GridDigest != gridDigest(mmGrid()) {
		t.Fatalf("reference is for grid %s, mmGrid is %s", ref.GridDigest, gridDigest(mmGrid()))
	}
	got := append([]frontierPoint(nil), ref.Frontier...)
	if _, failed := checkFrontier(ref.Frontier, got); failed != 0 {
		t.Errorf("identical frontier: %d failures", failed)
	}
	got[0].GFLOPS = math.Nextafter(got[0].GFLOPS, 0)
	if _, failed := checkFrontier(ref.Frontier, got); failed != 1 {
		t.Errorf("perturbed GFLOPS: %d failures, want 1", failed)
	}
	if _, failed := checkFrontier(ref.Frontier, ref.Frontier[1:]); failed != 1 {
		t.Errorf("missing point: %d failures, want 1", failed)
	}
}

func TestSliceCheckFailsWrongBinding(t *testing.T) {
	res := &sweep.Result{
		Points: []sweep.Point{
			{Mode: "hybrid", Density: 0}, {Mode: "hybrid", Density: 0.01},
			{Mode: "processor-only", Density: 0.01}, {Mode: "fpga-only", Density: 0},
		},
		Outcomes: []sweep.Outcome{
			{OK: true, Binding: "Op*Fp"}, {OK: true, Binding: "Bd"},
			{OK: true, Binding: "Op*Fp"}, {OK: true, Binding: "Bd"},
		},
	}
	if _, failed := checkSlice(res); failed != 0 {
		t.Errorf("expected bindings: %d failures", failed)
	}
	res.Outcomes[1].Binding = "Op*Fp"
	if _, failed := checkSlice(res); failed != 1 {
		t.Errorf("CSR point bound on Op*Fp: %d failures, want 1", failed)
	}
}

func TestDesignSweepPassChecksOut(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full design-sweep pass")
	}
	b, err := openSweep(options{seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	st, err := b.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || st.attempted == 0 || st.ops != mmGrid().NumPoints()+sliceGrid(3).NumPoints() {
		t.Errorf("pass: %d of %d checks failed, %d ops", st.failed, st.attempted, st.ops)
	}
}

func TestPlanShape(t *testing.T) {
	plan := buildPlan(1)
	if len(plan) != planRequests {
		t.Fatalf("plan has %d requests, want %d", len(plan), planRequests)
	}
	keys, sims, apps := map[string]bool{}, 0, map[string]bool{}
	for _, q := range plan {
		if q.method == sweep.MethodSim && !keys[q.key] {
			sims++
		}
		keys[q.key] = true
		apps[q.point.App] = true
	}
	// p99 must fall among the sim misses and p50 among the hits, with
	// room on both sides.
	if share := float64(sims) / planRequests; share < 0.02 || share > 0.05 {
		t.Errorf("first-seen sim share %.3f, want a few percent above 1%%", share)
	}
	if misses := float64(len(keys)) / planRequests; misses > 0.2 {
		t.Errorf("first-seen share %.3f leaves too few hits", misses)
	}
	for _, app := range []string{"lu", "fw", "mm", "spmv"} {
		if !apps[app] {
			t.Errorf("plan never queries %s", app)
		}
	}
}

func TestQueryPoolsAreFeasible(t *testing.T) {
	ev := sweep.NewEvaluator(0)
	for _, q := range append(modelUniverse(), simPool()...) {
		if out := ev.Evaluate(q.point, sweep.MethodModel); !out.OK {
			t.Errorf("%s is infeasible: %s", q.key, out.Err)
		}
	}
}

func TestSolveVerifyFailsPerturbedOutcome(t *testing.T) {
	b, err := openSolve(options{seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	s := b.(*solveBench)
	pr := &probe{tr: newTracer(), led: make(ledger), ctr: &sim.Counters{}}
	st, err := s.pass(pr)
	sim.InstallCounters(nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.failed != 0 || st.ops != planRequests {
		t.Fatalf("pass: %d failed, %d ops", st.failed, st.ops)
	}
	if hits, _ := pr.led.value("cache.hit_ratio"); hits < 0.8 {
		t.Errorf("cache.hit_ratio %.3f", hits)
	}
	if _, failed := s.verify(); failed != 0 {
		t.Fatalf("verify: %d failures", failed)
	}
	for k, o := range s.out {
		o.GFLOPS = math.Nextafter(o.GFLOPS, 0)
		s.out[k] = o
		break
	}
	if _, failed := s.verify(); failed != 1 {
		t.Errorf("perturbed outcome: %d failures, want 1", failed)
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []hostSpan{
		{ID: 1, Name: "parent", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "child", Start: 1 * ms, End: 4 * ms},
		{ID: 3, Parent: 1, Name: "child", Start: 3 * ms, End: 6 * ms},
		{ID: 4, Parent: 1, Name: "child", Start: 9 * ms, End: 12 * ms},
	}
	for _, r := range selfTimes(spans) {
		switch r.Name {
		case "parent":
			if r.Self != 4*time.Millisecond || r.Total != 10*time.Millisecond {
				t.Errorf("parent self %v total %v, want 4ms and 10ms", r.Self, r.Total)
			}
		case "child":
			if r.Count != 3 || r.Self != 9*time.Millisecond {
				t.Errorf("child count %d self %v, want 3 and 9ms", r.Count, r.Self)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if p := percentile(xs, 99); p != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", p)
	}
	if p := percentile(xs, 50); p != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", p)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
