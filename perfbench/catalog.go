package main

// Workload names. Later changes refer to the workloads by these names.
const (
	paperSuite  = "paper-suite"
	designSweep = "design-sweep"
	solveMix    = "solve-mix"
)

// workloadNames lists every workload in the order the traced run falls
// back to them for control passes.
var workloadNames = []string{paperSuite, designSweep, solveMix}

// metricSpec describes one reported metric.
type metricSpec struct {
	// Name is the metric's key in the result line.
	Name string
	// Unit is printed beside every value.
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64
	// Home lists the workloads whose own passes measure a per-layer
	// metric. A traced run of any other workload takes the metric from
	// one control pass of Home[0], so every run reports the full ledger.
	Home []string
	// Moves names the end-to-end metrics, per workload, that a change in
	// this per-layer metric should move.
	Moves []move
	// Steady names workloads on which this per-layer metric's layer is
	// never reached from the workload's own path, so their end-to-end
	// metrics should not move when only this layer changes.
	Steady []string
}

// move is one (end-to-end metric, workload) pair a layer should move.
type move struct {
	Metric, Workload string
}

// endToEnd lists the metrics a user of the system sees, measured with
// tracing off. ops_per_s counts simulations on paper-suite, grid points
// on design-sweep and requests on solve-mix. The latency percentiles are
// per Headline pass on paper-suite, per refined (simulated) candidate of
// the mm grid on design-sweep and per /v1/solve round trip on solve-mix.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.2},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.2},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.2},
	{Name: "op_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

var (
	all       = []string{paperSuite, designSweep, solveMix}
	paperOnly = []string{paperSuite}
	sweepOnly = []string{designSweep}
	solveOnly = []string{solveMix}

	servingMoves = []move{{"op_p50_ms", solveMix}, {"ops_per_s", solveMix}}
	cacheMoves   = []move{{"ops_per_s", solveMix}, {"op_p99_ms", solveMix}}
	sweepMoves   = []move{{"ops_per_s", designSweep}, {"op_p99_ms", solveMix}}
	coreMoves    = []move{{"wall_s", paperSuite}, {"ops_per_s", designSweep}}
	simMoves     = []move{{"wall_s", paperSuite}, {"ops_per_s", designSweep}}
	digestMoves  = []move{{"wall_s", paperSuite}, {"ops_per_s", designSweep}}
	spdMoves     = []move{{"wall_s", paperSuite}, {"alloc_mb", paperSuite}}
	sparseMoves  = []move{{"ops_per_s", designSweep}}
	operandMoves = []move{{"wall_s", paperSuite}, {"alloc_mb", paperSuite}, {"ops_per_s", designSweep}}
)

// runtimeMoves is every wall-time metric and alloc_mb on every workload:
// collector work lands wherever the program allocates.
func runtimeMoves() []move {
	var out []move
	for _, w := range workloadNames {
		for _, m := range []string{"alloc_mb", "wall_s", "op_p50_ms", "op_p99_ms"} {
			out = append(out, move{m, w})
		}
	}
	return out
}

// perLayer lists the per-layer metrics of the traced run, grouped by the
// package whose public functions the benchmark times or whose counters
// it reads.
var perLayer = []metricSpec{
	// serve: the HTTP front, timed by a wrapper around Server.Handler().
	{Name: "serve.rtt_hit_p50_us", Unit: "us", Better: "lower", Home: solveOnly, Moves: servingMoves, Steady: []string{paperSuite, designSweep}},
	{Name: "serve.handler_hit_p50_us", Unit: "us", Better: "lower", Home: solveOnly, Moves: servingMoves, Steady: []string{paperSuite, designSweep}},
	{Name: "serve.transport_hit_p50_us", Unit: "us", Better: "lower", Home: solveOnly, Moves: servingMoves, Steady: []string{paperSuite, designSweep}},
	{Name: "serve.shed_ratio", Unit: "ratio", Better: "lower", Home: solveOnly, Moves: servingMoves, Steady: []string{paperSuite, designSweep}},

	// cache: the solve cache and single-flight behind Service.Solve.
	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Home: solveOnly, Moves: cacheMoves},
	{Name: "cache.coalesced_ratio", Unit: "ratio", Better: "higher", Home: solveOnly, Moves: cacheMoves},
	{Name: "cache.computed", Unit: "count", Better: "lower", Home: solveOnly, Moves: cacheMoves},
	{Name: "cache.evictions", Unit: "count", Better: "lower", Home: solveOnly, Moves: cacheMoves},
	{Name: "cache.solve_hit_us", Unit: "us", Better: "lower", Home: solveOnly, Moves: cacheMoves},

	// sweep: the runner, the model screen and the evaluator's memos.
	{Name: "sweep.place_hit_ratio", Unit: "ratio", Better: "higher", Home: []string{designSweep, solveMix}, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.partition_hit_ratio", Unit: "ratio", Better: "higher", Home: []string{designSweep, solveMix}, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.resolve_hit_ratio", Unit: "ratio", Better: "higher", Home: []string{designSweep, solveMix}, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.candidate_ratio", Unit: "ratio", Better: "lower", Home: sweepOnly, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.screen_s", Unit: "s", Better: "lower", Home: sweepOnly, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.refine_s", Unit: "s", Better: "lower", Home: sweepOnly, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.worker_busy_ratio", Unit: "ratio", Better: "higher", Home: sweepOnly, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.eval_model_us", Unit: "us", Better: "lower", Home: []string{designSweep, solveMix}, Moves: sweepMoves, Steady: paperOnly},
	{Name: "sweep.eval_sim_ms", Unit: "ms", Better: "lower", Home: []string{designSweep, solveMix}, Moves: sweepMoves, Steady: paperOnly},

	// core: host time inside the core.Run* calls.
	{Name: "core.lu_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: coreMoves},
	{Name: "core.fw_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: coreMoves},
	{Name: "core.mm_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: coreMoves},
	{Name: "core.chol_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: coreMoves},
	{Name: "core.qr_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: coreMoves},
	{Name: "core.cg_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: coreMoves},
	{Name: "core.spmv_ms", Unit: "ms", Better: "lower", Home: sweepOnly, Moves: coreMoves},

	// matrix: functional operand generation.
	{Name: "matrix.random_spd_s", Unit: "s", Better: "lower", Home: paperOnly, Moves: spdMoves},
	{Name: "matrix.random_sparse_ms", Unit: "ms", Better: "lower", Home: sweepOnly, Moves: sparseMoves},
	{Name: "matrix.operand_share", Unit: "ratio", Better: "lower", Home: []string{paperSuite, designSweep}, Moves: operandMoves},
	{Name: "matrix.alloc_mb", Unit: "MB", Better: "lower", Home: []string{paperSuite, designSweep}, Moves: operandMoves},

	// sim: the discrete-event engine, through sim.InstallCounters.
	{Name: "sim.events", Unit: "count", Better: "lower", Home: all, Moves: simMoves},
	{Name: "sim.spans", Unit: "count", Better: "lower", Home: all, Moves: simMoves},
	{Name: "sim.ns_per_event", Unit: "ns", Better: "lower", Home: all, Moves: simMoves},
	{Name: "sim.handoff_ratio", Unit: "ratio", Better: "lower", Home: all, Moves: simMoves},
	{Name: "sim.fused_ratio", Unit: "ratio", Better: "higher", Home: all, Moves: simMoves},

	// trace and analysis: telemetry digests of recorded spans.
	{Name: "trace.overlap_ms", Unit: "ms", Better: "lower", Home: paperOnly, Moves: digestMoves},
	{Name: "analysis.critical_path_ms", Unit: "ms", Better: "lower", Home: paperOnly, Moves: digestMoves},
	{Name: "analysis.classify_ms", Unit: "ms", Better: "lower", Home: paperOnly, Moves: digestMoves},

	// runtime: the Go collector, and the cost of this benchmark's tracing.
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Home: all, Moves: runtimeMoves()},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower", Home: all, Moves: runtimeMoves()},
	{Name: "trace_overhead_ratio", Unit: "ratio", Better: "lower", Home: all, Moves: runtimeMoves()},
}

// homeOf reports whether w's own passes measure the per-layer metric.
func (m metricSpec) homeOf(w string) bool {
	for _, h := range m.Home {
		if h == w {
			return true
		}
	}
	return false
}
