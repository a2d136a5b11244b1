package sweep

import (
	"errors"
	"fmt"
	"sync"

	"codesign/internal/analysis"
	"codesign/internal/cache"
	"codesign/internal/core"
	"codesign/internal/fpga"
	"codesign/internal/machine"
	"codesign/internal/trace"
)

// Outcome is the evaluation of one design point. OK distinguishes
// evaluated points from infeasible ones (a design that does not fit
// the device, a block size violating a divisibility constraint):
// infeasible points stay in the result set with Err describing why, so
// a sweep documents the feasible region as well as the frontier.
type Outcome struct {
	// OK reports whether the point evaluated; when false only Err is
	// meaningful.
	OK bool `json:"ok"`
	// Err describes why an infeasible point could not be evaluated.
	Err string `json:"err,omitempty"`

	// K is the resolved PE count; Of the design's flops per cycle
	// (2K for every PE array); FfMHz the post-place-and-route clock.
	K int `json:"k,omitempty"`
	// Of is the design's floating-point operations per FPGA cycle.
	Of int `json:"of,omitempty"`
	// FfMHz is the placed design clock in MHz (the model's Ff).
	FfMHz float64 `json:"ff_mhz,omitempty"`

	// Slices, BlockRAMs and Multipliers are the placed design's FPGA
	// resource consumption — the budget axis of the Pareto frontier.
	Slices int `json:"slices,omitempty"`
	// BlockRAMs is the 18 kb block RAM usage.
	BlockRAMs int `json:"brams,omitempty"`
	// Multipliers is the embedded 18x18 multiplier usage.
	Multipliers int `json:"mults,omitempty"`
	// BdGBps is the effective FPGA-DRAM streaming demand in GB/s —
	// min(raw path, one word per design cycle), the bandwidth axis of
	// the Pareto frontier.
	BdGBps float64 `json:"bd_gbps,omitempty"`

	// BF and BP are the resolved FPGA/processor row split (stripe rows
	// for lu, chol, qr and mm; operator rows for spmv and cg).
	BF int `json:"bf,omitempty"`
	// BP is the processor's rows of the split.
	BP int `json:"bp,omitempty"`
	// L is the resolved lu/chol panel pipeline depth (Eq. 5).
	L int `json:"l,omitempty"`
	// L1 and L2 are the resolved FW whole-task split (Eq. 6).
	L1 int `json:"l1,omitempty"`
	// L2 is the FPGA's share of the FW split.
	L2 int `json:"l2,omitempty"`

	// GFLOPS is the point's headline throughput: measured under
	// MethodSim, model-predicted under MethodModel. The Pareto
	// frontier maximizes it.
	GFLOPS float64 `json:"gflops,omitempty"`
	// Seconds is the corresponding latency.
	Seconds float64 `json:"seconds,omitempty"`
	// PredictedGFLOPS is the Section 4.5 prediction (always present,
	// also under MethodSim, where GFLOPS/PredictedGFLOPS is the
	// prediction-accuracy ratio of Section 6.2).
	PredictedGFLOPS float64 `json:"pred_gflops,omitempty"`
	// OverlapEfficiency is the telemetry overlap efficiency (MethodSim
	// only): the fraction of data-movement time hidden behind compute.
	OverlapEfficiency float64 `json:"overlap_eff,omitempty"`

	// Binding names the model parameter that binds the design's
	// dominant phase (Of*Ff, Op*Fp, Bd or Bn): analytic under
	// MethodModel, measured via the internal/analysis classifier under
	// MethodSim. Margin is the normalized imbalance (0 = balanced).
	Binding string `json:"binding,omitempty"`
	// Margin is the binding's normalized imbalance.
	Margin float64 `json:"margin,omitempty"`

	// Pareto marks the point as non-dominated on
	// (GFLOPS up, Slices down, BdGBps down) among the sweep's OK
	// points.
	Pareto bool `json:"pareto,omitempty"`
}

// Stats counts the work a sweep did, including how often the memoized
// place-and-route and partition solvers were shared between points.
type Stats struct {
	// Points is the grid size; Errors the infeasible subset.
	Points int `json:"points"`
	// Errors counts infeasible points.
	Errors int `json:"errors"`
	// PlaceLookups / PlaceSolves count pseudo place-and-route cache
	// traffic: lookups - solves placements were reused.
	PlaceLookups int `json:"place_lookups"`
	// PlaceSolves counts distinct placements actually solved.
	PlaceSolves int `json:"place_solves"`
	// PartitionLookups / PartitionSolves count Eq. 1/4/5/6 solver cache
	// traffic.
	PartitionLookups int `json:"partition_lookups"`
	// PartitionSolves counts distinct partition solves.
	PartitionSolves int `json:"partition_solves"`
	// ResolveLookups / ResolveSolves count largest-fitting-PE-array
	// resolutions (the place-and-route search behind PEs=0 points):
	// lookups - solves were reused across neighboring grid points.
	ResolveLookups int `json:"resolve_lookups"`
	// ResolveSolves counts distinct PE-array resolutions actually
	// searched.
	ResolveSolves int `json:"resolve_solves"`
}

// placeVal is a memoized placement (or its failure).
type placeVal struct {
	core.Placement
	err string
}

// partVal is a memoized partition solution (two ints cover every
// solver: bf/bp, l/-, l1/l2).
type partVal struct {
	a, b int
}

// evaluator carries the memo caches behind one or more sweeps and is
// the core.Memo every point's plan solves through. The three caches are
// the structured per-stage key family behind incremental evaluation:
// two grid points that differ in one axis share every stage whose key
// does not mention that axis, so a neighbor is delta-evaluated instead
// of re-derived. Run builds a fresh unbounded evaluator per call unless
// Options.Evaluator shares a long-lived instance (the codesignd serving
// path); either way each distinct search, placement or partition is
// solved exactly once per evaluator, so results stay deterministic.
type evaluator struct {
	place *cache.LRU[core.PlaceKey, placeVal]
	part  *cache.LRU[core.PartitionKey, partVal]
	maxk  *cache.LRU[core.MaxPEsKey, int]

	mu    sync.Mutex
	stats Stats

	// recs recycles span recorders across MethodSim grid points so
	// workers reuse warmed buffers instead of regrowing a span slice
	// per simulation. Recorders are returned by measured.
	recs sync.Pool
}

// newEvaluator builds an evaluator whose memo caches hold at most
// bound entries each (0 = unbounded, the per-sweep mode).
func newEvaluator(bound int) *evaluator {
	ev := &evaluator{
		place: cache.NewLRU[core.PlaceKey, placeVal](bound),
		part:  cache.NewLRU[core.PartitionKey, partVal](bound),
		maxk:  cache.NewLRU[core.MaxPEsKey, int](bound),
	}
	ev.recs.New = func() any { return trace.NewRecorder() }
	return ev
}

// statsDelta returns the evaluator's cumulative stats minus a prior
// snapshot — the traffic attributable to one run when the evaluator
// is shared.
func (ev *evaluator) statsDelta(before Stats) Stats {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	s := ev.stats
	s.PlaceLookups -= before.PlaceLookups
	s.PlaceSolves -= before.PlaceSolves
	s.PartitionLookups -= before.PartitionLookups
	s.PartitionSolves -= before.PartitionSolves
	s.ResolveLookups -= before.ResolveLookups
	s.ResolveSolves -= before.ResolveSolves
	return s
}

// count records one memo lookup, and a solve when it computed.
func (ev *evaluator) count(lookups, solves *int, computed bool) {
	ev.mu.Lock()
	*lookups++
	if computed {
		*solves++
	}
	ev.mu.Unlock()
}

// recorder checks out a reset span recorder from the pool.
func (ev *evaluator) recorder() *trace.Recorder {
	rec := ev.recs.Get().(*trace.Recorder)
	rec.Reset()
	return rec
}

// MaxPEs implements core.Memo: every grid point that leaves PEs unset
// shares one largest-fitting-array search per (family, device, fw
// block size), so a million-point sweep pays for a handful of searches
// instead of one per point. As for the other two memos the solve runs
// under the cache lock (cache.LRU.GetOrCompute), so each distinct
// problem is solved exactly once no matter how many workers race for
// it.
func (ev *evaluator) MaxPEs(key core.MaxPEsKey, dev fpga.Device) int {
	k, computed := ev.maxk.GetOrCompute(key, func() int { return key.Search(dev) })
	ev.count(&ev.stats.ResolveLookups, &ev.stats.ResolveSolves, computed)
	return k
}

// Place implements core.Memo for pseudo place-and-route.
func (ev *evaluator) Place(key core.PlaceKey, dev fpga.Device) (core.Placement, error) {
	v, computed := ev.place.GetOrCompute(key, func() placeVal {
		p, err := key.Place(dev)
		if err != nil {
			return placeVal{err: err.Error()}
		}
		return placeVal{Placement: p}
	})
	ev.count(&ev.stats.PlaceLookups, &ev.stats.PlaceSolves, computed)
	if v.err != "" {
		return v.Placement, errors.New(v.err)
	}
	return v.Placement, nil
}

// Partition implements core.Memo for the Eq. 1/4/5/6 solves.
func (ev *evaluator) Partition(key core.PartitionKey) (int, int) {
	v, computed := ev.part.GetOrCompute(key, func() partVal {
		a, b := key.Solve()
		return partVal{a: a, b: b}
	})
	ev.count(&ev.stats.PartitionLookups, &ev.stats.PartitionSolves, computed)
	return v.a, v.b
}

// fail builds an infeasible outcome.
func fail(err error) Outcome { return Outcome{Err: err.Error()} }

// pointSpec maps a grid point to its app-table entry and core.Spec: the
// machine preset with the node override, the mode, and the entry's
// default sizes for a zero N or B. The grid's L axis is both LU's
// pipeline depth and FW's l1.
func pointSpec(pt Point) (core.App, core.Spec, error) {
	app, err := core.LookupApp(pt.App)
	if err != nil {
		return app, core.Spec{}, err
	}
	cfg, err := machine.Preset(pt.Machine)
	if err != nil {
		return app, core.Spec{}, err
	}
	mode, err := core.ParseMode(pt.Mode)
	if err != nil {
		return app, core.Spec{}, err
	}
	n, b := app.Sizes(pt.N, pt.B)
	return app, core.Spec{Machine: cfg.WithNodes(pt.Nodes), N: n, B: b, PEs: pt.PEs,
		BF: pt.BF, L: pt.L, L1: pt.L, Density: pt.Density, Mode: mode}, nil
}

// evaluate runs one grid point under the given method: the point's
// plan, solved through the evaluator's memos, gives the placed design
// and the partition; MethodModel reads the Section 4.5 prediction and
// the closed-form binding from it, MethodSim simulates the planned
// spec.
func (ev *evaluator) evaluate(pt Point, method string) Outcome {
	app, s, err := pointSpec(pt)
	if err != nil {
		return fail(err)
	}
	if method == MethodModel {
		if err := app.CheckModel(); err != nil {
			return fail(fmt.Errorf("%w; use method sim", err))
		}
	}
	pl, err := app.Plan(s, ev)
	if err != nil {
		return fail(err)
	}
	sp := pl.Split
	out := Outcome{
		OK: true, K: sp.K, Of: 2 * sp.K, FfMHz: pl.FreqHz / 1e6, // every PE array does two flops per PE per cycle
		Slices: pl.Usage.Slices, BlockRAMs: pl.Usage.BlockRAMs, Multipliers: pl.Usage.Multipliers,
		BdGBps: pl.Bd / 1e9,
		BF:     sp.BF, BP: sp.BP, L: sp.L, L1: sp.L1, L2: sp.L2,
	}
	if method == MethodSim {
		return ev.measured(out, app, pl.Spec)
	}
	pred := pl.Prediction
	out.GFLOPS, out.Seconds, out.PredictedGFLOPS = pred.GFLOPS, pred.Seconds, pred.GFLOPS
	out.Binding, out.Margin = pl.Binding.String(), pl.Margin
	return out
}

// simulate runs one point's full simulation through the core app table
// with rec attached. It is the one MethodSim configuration: measured
// and the frontier span archive both call it, so an archived trace is
// exactly the run the sweep measured.
func simulate(app core.App, s core.Spec, rec *trace.Recorder) (*core.AppRun, error) {
	s.Observer = rec
	return app.Run(s)
}

// measured finishes a MethodSim outcome: measured throughput, the
// Section 4.5 prediction, the resolved split, the telemetry overlap
// efficiency, and the dominant phase's measured binding from the
// internal/analysis bottleneck classifier. The span digest runs on a
// pooled recorder's buffer in place.
func (ev *evaluator) measured(out Outcome, app core.App, s core.Spec) Outcome {
	rec := ev.recorder()
	defer ev.recs.Put(rec)
	res, err := simulate(app, s, rec)
	if err != nil {
		return fail(err)
	}
	out.GFLOPS, out.Seconds, out.PredictedGFLOPS = res.GFLOPS, res.Seconds, res.Prediction.GFLOPS
	// Digest the sweep's own recorder instead of asking the run for a
	// full telemetry summary: ComputeOverlap over the same span stream
	// and makespan yields the identical efficiency at a fraction of the
	// cost (no per-process/per-resource digest per grid point).
	out.OverlapEfficiency = trace.ComputeOverlap(rec.SpansView(), res.Seconds).Efficiency()
	sp := res.Split
	out.BF, out.BP, out.L, out.L1, out.L2 = sp.BF, sp.BP, sp.L, sp.L1, sp.L2
	phases := analysis.ClassifyPhases(rec.SpansView(), res.Expected)
	var busiest *analysis.PhaseStats
	for i := range phases {
		if phases[i].Phase == "" {
			continue
		}
		if busiest == nil || phases[i].TotalBusy() > busiest.TotalBusy() {
			busiest = &phases[i]
		}
	}
	if busiest != nil {
		out.Binding, out.Margin = busiest.Binding.String(), busiest.Margin
	}
	return out
}
