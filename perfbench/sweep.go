package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"

	"codesign/internal/matrix"
	"codesign/internal/sim"
	"codesign/internal/sweep"
)

// mmFrontierJSON is the full-simulation Pareto frontier of mmGrid,
// written by --make-reference.
//
//go:embed reference/mm_frontier.json
var mmFrontierJSON []byte

// mmGrid is the 12,040-point matrix-multiplication design space of the
// repository's BenchmarkScreenedSweep: 5 problem sizes x 4 PE counts x
// 602 row splits under the sim method.
func mmGrid() sweep.Grid {
	bf := make([]int, 0, 602)
	bf = append(bf, -1)
	for v := 0; v <= 600; v++ {
		bf = append(bf, v)
	}
	return sweep.Grid{
		Apps:   []string{"mm"},
		N:      []int{480, 600, 720, 840, 960},
		PEs:    []int{2, 4, 6, 8},
		BF:     bf,
		L:      []int{-1},
		Method: sweep.MethodSim,
	}
}

// sliceN are the operator sizes of the spmv slice.
var sliceN = []int{1024, 1536, 2048, 2560}

// densityStrata bound the slice's CSR densities: the seed draws one
// density from each band, so every seed's slice has the same shape and
// about the same cost.
var densityStrata = [][2]float64{{0.005, 0.01}, {0.01, 0.02}, {0.02, 0.04}}

// sliceModes are the three designs every slice operator runs under.
var sliceModes = []string{"hybrid", "processor-only", "fpga-only"}

// sliceGrid is the seeded spmv slice: density 0 (the dense DGEMV
// regime) and one CSR density per stratum, at every size and mode,
// under the sim method.
func sliceGrid(seed int64) sweep.Grid {
	rng := rand.New(rand.NewSource(seed))
	dens := []float64{0}
	for _, s := range densityStrata {
		d := s[0] + rng.Float64()*(s[1]-s[0])
		dens = append(dens, math.Round(d*1e5)/1e5)
	}
	return sweep.Grid{Apps: []string{"spmv"}, N: sliceN, Density: dens, Modes: sliceModes, Method: sweep.MethodSim}
}

// gridDigest digests a grid's JSON form.
func gridDigest(g sweep.Grid) string {
	b, err := json.Marshal(g)
	if err != nil {
		panic(err) // a Grid is plain data; Marshal cannot fail
	}
	return digest(b)
}

// frontierPoint is one Pareto-optimal point of the mm grid.
type frontierPoint struct {
	Index  int     `json:"index"`
	N      int     `json:"n"`
	PEs    int     `json:"pes"`
	BF     int     `json:"bf"`
	GFLOPS float64 `json:"gflops"`
	Slices int     `json:"slices"`
	BdGBps float64 `json:"bd_gbps"`
}

// frontierRef is the reference file's content.
type frontierRef struct {
	GridDigest string          `json:"grid_digest"`
	Frontier   []frontierPoint `json:"frontier"`
}

// frontierOf lists a result's Pareto points in grid-index order.
func frontierOf(res *sweep.Result) []frontierPoint {
	out := make([]frontierPoint, 0, len(res.ParetoIndices))
	for _, i := range res.ParetoIndices {
		p, o := res.Points[i], res.Outcomes[i]
		out = append(out, frontierPoint{Index: p.Index, N: p.N, PEs: p.PEs, BF: p.BF,
			GFLOPS: o.GFLOPS, Slices: o.Slices, BdGBps: o.BdGBps})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Index < out[b].Index })
	return out
}

// checkFrontier compares a frontier with the reference, point by point
// and exactly. It returns the points checked and the points present on
// one side only or different between them.
func checkFrontier(ref, got []frontierPoint) (attempted, failed int) {
	want := make(map[int]frontierPoint, len(ref))
	for _, p := range ref {
		want[p.Index] = p
	}
	for _, p := range got {
		if w, ok := want[p.Index]; !ok || w != p {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: design-sweep frontier point %+v, reference %+v\n", p, w)
		}
		delete(want, p.Index)
	}
	for _, p := range want {
		failed++
		fmt.Fprintf(os.Stderr, "perfbench: design-sweep frontier lacks reference point %+v\n", p)
	}
	return len(ref), failed
}

// expectedBinding is the binding the Eq. 1 regime predicts for a slice
// point: a dense operator keeps the hybrid split on the processor's
// DGEMV (Op*Fp), a CSR operator streams from DRAM (Bd); the baselines
// bind on the one device they use.
func expectedBinding(mode string, density float64) string {
	switch {
	case mode == "processor-only":
		return "Op*Fp"
	case mode == "fpga-only" || density > 0:
		return "Bd"
	default:
		return "Op*Fp"
	}
}

// checkSlice checks every slice point evaluated and bound as expected.
func checkSlice(res *sweep.Result) (attempted, failed int) {
	for i, o := range res.Outcomes {
		p := res.Points[i]
		if want := expectedBinding(p.Mode, p.Density); !o.OK || o.Binding != want {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: design-sweep spmv n=%d density=%g %s: ok=%v binding %q, want %q (%s)\n",
				p.N, p.Density, p.Mode, o.OK, o.Binding, want, o.Err)
		}
	}
	return len(res.Outcomes), failed
}

// sweepWorkers is the design-sweep worker count. The cmd/sweep default is
// one worker per CPU, but on a two-vCPU virtual machine two workers made
// whole runs bistable: a pass took either about 0.8 s or about 1.4 s,
// the slow mode dominated by runtime.wakep as the simulation engines'
// goroutine handoffs woke the other CPU. One worker runs within 3% of
// itself from run to run.
const sweepWorkers = 1

// sweepBench is the cmd/sweep path: a screened sweep of the mm grid and
// a full sweep of the seeded spmv slice per pass.
type sweepBench struct {
	mm, slice sweep.Grid
	mmPoints  []sweep.Point
	ref       []frontierPoint
}

func openSweep(o options) (bench, error) {
	var ref frontierRef
	if err := json.Unmarshal(mmFrontierJSON, &ref); err != nil {
		return nil, fmt.Errorf("design-sweep: reading frontier reference: %w", err)
	}
	mm := mmGrid()
	if d := gridDigest(mm); ref.GridDigest != d || len(ref.Frontier) == 0 {
		return nil, fmt.Errorf("design-sweep: frontier reference is for grid %s, not %s; regenerate it with --make-reference",
			ref.GridDigest, d)
	}
	return &sweepBench{mm: mm, slice: sliceGrid(o.seed), mmPoints: mm.Points(), ref: ref.Frontier}, nil
}

func (s *sweepBench) describe(w io.Writer) {
	fmt.Fprintf(w, "inputs: design-sweep mm grid %d points digest %s; spmv slice %d points densities %v digest %s; %d workers\n",
		s.mm.NumPoints(), gridDigest(s.mm), s.slice.NumPoints(), s.slice.Density, gridDigest(s.slice), sweepWorkers)
}

func (s *sweepBench) pass(pr *probe) (passStats, error) {
	ctx := context.Background()
	var (
		st passStats
		tr *tracer
		id = "design-sweep"
		// Each phase's last progress time and per-worker busy time; the
		// runner serializes progress callbacks.
		lastAt = map[string]time.Time{}
		busyAt = map[string][]time.Duration{}
		simSec float64
	)
	if pr != nil {
		tr, id = pr.tr, fmt.Sprintf("design-sweep-%d", pr.pass)
	}
	passID, screenedID, sliceID := tr.id(), tr.id(), tr.id()
	phaseID := map[string]int64{"screen": tr.id(), "refine": tr.id()}
	onProgress := func(p sweep.Progress) {
		if p.Phase == "refine" {
			st.latMS = append(st.latMS, p.PointSeconds*1e3)
		}
		if p.Phase != "screen" {
			simSec += p.PointSeconds
		}
		if tr == nil {
			return
		}
		now := time.Now()
		phase := p.Phase
		if phase == "" {
			phase = "slice"
		}
		lastAt[phase], busyAt[phase] = now, p.WorkerBusy
		parent := sliceID
		if p.Phase != "" {
			parent = phaseID[p.Phase]
		}
		tr.record(tr.id(), parent, "sweep.point", fmt.Sprintf("%s/%s/%d", id, phase, p.Done),
			now.Add(-time.Duration(p.PointSeconds*1e9)), now)
	}
	opts := sweep.Options{Workers: sweepWorkers, OnProgress: onProgress}

	if pr != nil {
		sim.InstallCounters(pr.ctr)
	}
	start := time.Now()
	screened, err := sweep.RunScreened(ctx, s.mm, sweep.ScreenOptions{Options: opts})
	mid := time.Now()
	if err != nil {
		return st, fmt.Errorf("design-sweep: screened sweep: %w", err)
	}
	sliceSimStart := simSec
	slice, err := sweep.Run(ctx, s.slice, opts)
	end := time.Now()
	sim.InstallCounters(nil)
	if err != nil {
		return st, fmt.Errorf("design-sweep: spmv slice: %w", err)
	}
	st.wall = end.Sub(start)
	st.ops = screened.Screen.Points + len(slice.Points)
	a, f := checkFrontier(s.ref, frontierOf(screened))
	a2, f2 := checkSlice(slice)
	st.attempted, st.failed = a+a2, f+f2
	if pr == nil {
		return st, nil
	}

	screenEnd := lastAt["screen"]
	tr.record(passID, 0, "pass", id, start, end)
	tr.record(screenedID, passID, "sweep.RunScreened", id, start, mid)
	tr.record(phaseID["screen"], screenedID, "sweep.screen", id, start, screenEnd)
	tr.record(phaseID["refine"], screenedID, "sweep.refine", id, screenEnd, mid)
	tr.record(sliceID, passID, "sweep.Run", id, mid, end)

	led := pr.led
	stats := screened.Stats
	led.add("sweep.place_hit_ratio", stats.PlaceHitRate())
	led.add("sweep.partition_hit_ratio", stats.PartitionHitRate())
	led.add("sweep.resolve_hit_ratio", ratio(float64(stats.ResolveLookups-stats.ResolveSolves), float64(stats.ResolveLookups)))
	led.add("sweep.candidate_ratio", ratio(float64(screened.Screen.Candidates), float64(screened.Screen.Points)))
	screenS, refineS := screenEnd.Sub(start).Seconds(), mid.Sub(screenEnd).Seconds()
	led.add("sweep.screen_s", screenS)
	led.add("sweep.refine_s", refineS)
	var busy time.Duration
	for _, b := range append(busyAt["screen"], busyAt["refine"]...) {
		busy += b
	}
	led.add("sweep.worker_busy_ratio", busy.Seconds()/(sweepWorkers*(screenS+refineS)))
	sliceSim := simSec - sliceSimStart
	led.add("core.spmv_ms", 1e3*sliceSim/float64(len(slice.Points)))
	pr.hostNS += int64(simSec * 1e9)

	ra, rf := s.replay(pr, id, screened)
	st.attempted += ra
	st.failed += rf
	s.operands(pr, id, slice, sliceSim)
	return st, nil
}

// replayModel and replaySim size the direct Evaluator.Evaluate replay:
// every replayModel-th grid point under the model, and the first
// replaySim refined candidates under simulation.
const (
	replayModel = 97
	replaySim   = 8
)

// replay times direct Evaluator.Evaluate calls on a fresh evaluator and
// checks the simulated ones against the sweep's own outcomes.
func (s *sweepBench) replay(pr *probe, id string, screened *sweep.Result) (attempted, failed int) {
	ev := sweep.NewEvaluator(0)
	var model, simMS []float64
	for i := 0; i < len(s.mmPoints); i += replayModel {
		d := pr.tr.span(0, "sweep.Evaluate", fmt.Sprintf("%s/model/%d", id, i), func(int64) {
			ev.Evaluate(s.mmPoints[i], sweep.MethodModel)
		})
		model = append(model, float64(d)/1e3)
	}
	for i := 0; i < replaySim && i < len(screened.Points); i++ {
		var out sweep.Outcome
		d := pr.tr.span(0, "sweep.Evaluate", fmt.Sprintf("%s/sim/%d", id, screened.Points[i].Index), func(int64) {
			out = ev.Evaluate(screened.Points[i], sweep.MethodSim)
		})
		simMS = append(simMS, ms(d))
		attempted++
		if want := screened.Outcomes[i]; out.GFLOPS != want.GFLOPS || out.Seconds != want.Seconds || out.Binding != want.Binding {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: design-sweep replay of point %d: %+v, sweep gave %+v\n",
				screened.Points[i].Index, out, want)
		}
	}
	pr.led.add("sweep.eval_model_us", median(model))
	pr.led.add("sweep.eval_sim_ms", median(simMS))
	return attempted, failed
}

// operands times the generation of every slice point's operand as
// core.RunSpMV builds it (seed 0, the evaluator's default): CSR through
// matrix.RandomSparse, dense through matrix.Random.
func (s *sweepBench) operands(pr *probe, id string, slice *sweep.Result, sliceSim float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var gen time.Duration
	for _, p := range slice.Points {
		name := "matrix.Random"
		if p.Density > 0 {
			name = "matrix.RandomSparse"
		}
		gen += pr.tr.span(0, name, fmt.Sprintf("%s/operand/%d", id, p.Index), func(int64) {
			rng := rand.New(rand.NewSource(0))
			if p.Density > 0 {
				matrix.RandomSparse(p.N, p.Density, rng)
			} else {
				matrix.Random(p.N, p.N, rng)
			}
		})
	}
	runtime.ReadMemStats(&m1)
	pr.led.add("matrix.random_sparse_ms", ms(gen))
	pr.led.add("matrix.operand_share", ratio(gen.Seconds(), sliceSim))
	pr.led.add("matrix.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
}

func (s *sweepBench) verify() (int, int) { return 0, 0 }
func (s *sweepBench) report(w io.Writer) {}
func (s *sweepBench) close()             {}

// writeReference simulates every point of the mm grid and writes its
// Pareto frontier — the reference the screened sweep must reproduce.
func writeReference(path string) error {
	g := mmGrid()
	res, err := sweep.Run(context.Background(), g, sweep.Options{Workers: runtime.NumCPU()})
	if err != nil {
		return fmt.Errorf("full mm sweep: %w", err)
	}
	data, err := json.MarshalIndent(frontierRef{GridDigest: gridDigest(g), Frontier: frontierOf(res)}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
