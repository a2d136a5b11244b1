package analysis_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"codesign/internal/analysis"
	"codesign/internal/core"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// oracleCriticalPath is the reference implementation of
// ExtractCriticalPath: it copies the positive-width spans and sorts the
// copies by End with sort.Slice before the same backward walk. The
// in-place version must return identical hops.
func oracleCriticalPath(spans []sim.SpanEvent, makespan float64) []analysis.Hop {
	if makespan <= 0 {
		return nil
	}
	ss := make([]sim.SpanEvent, 0, len(spans))
	for _, s := range spans {
		if s.End > s.Start && s.Start < makespan {
			ss = append(ss, s)
		}
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].End < ss[j].End })

	var rev []analysis.Hop
	idle := func(start, end float64) {
		if end > start {
			rev = append(rev, analysis.Hop{Category: sim.CatIdle, Start: start, End: end})
		}
	}
	t := makespan
	prevProc := ""
	for t > 0 {
		i := sort.Search(len(ss), func(k int) bool { return ss[k].End > t })
		if i == 0 {
			idle(0, t)
			break
		}
		maxEnd := ss[i-1].End
		best := ss[i-1]
		for j := i - 2; j >= 0 && ss[j].End == maxEnd; j-- {
			if oracleBetter(ss[j], best, prevProc) {
				best = ss[j]
			}
		}
		idle(maxEnd, t)
		start := best.Start
		if start < 0 {
			start = 0
		}
		rev = append(rev, analysis.Hop{
			Proc: best.Proc, Resource: best.Resource, Phase: best.Phase,
			Category: best.Category, Device: best.Device,
			Start: start, End: maxEnd,
		})
		t = start
		prevProc = best.Proc
	}
	out := make([]analysis.Hop, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		h := rev[i]
		if n := len(out); n > 0 {
			p := &out[n-1]
			if p.End == h.Start && p.Proc == h.Proc && p.Resource == h.Resource &&
				p.Phase == h.Phase && p.Category == h.Category {
				p.End = h.End
				continue
			}
		}
		out = append(out, h)
	}
	return out
}

func oracleBetter(a, b sim.SpanEvent, prevProc string) bool {
	if prevProc != "" && (a.Proc == prevProc) != (b.Proc == prevProc) {
		return a.Proc == prevProc
	}
	if a.Category != b.Category {
		return a.Category < b.Category
	}
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	if a.Proc != b.Proc {
		return a.Proc < b.Proc
	}
	if a.Resource != b.Resource {
		return a.Resource < b.Resource
	}
	return a.Phase < b.Phase
}

// checkAgainstOracle compares the hop lists of the two implementations
// and that the input was left untouched.
func checkAgainstOracle(t *testing.T, name string, spans []sim.SpanEvent, makespan float64) {
	t.Helper()
	before := append([]sim.SpanEvent(nil), spans...)
	got := analysis.ExtractCriticalPath(spans, makespan)
	want := oracleCriticalPath(spans, makespan)
	if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
		t.Fatalf("%s: %d hops, oracle %d; first difference at %d", name, len(got), len(want), firstDiff(got, want))
	}
	if !reflect.DeepEqual(spans, before) {
		t.Fatalf("%s: ExtractCriticalPath modified its input", name)
	}
}

func firstDiff(a, b []analysis.Hop) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// tieSpans builds n spans in emission order (nondecreasing ends) whose
// ends fall on a coarse grid, so many spans share each end. Device is
// a function of the process, so spans that agree on every tie-break
// field are identical hops.
func tieSpans(rng *rand.Rand, n int, grid float64) []sim.SpanEvent {
	cats := []sim.Category{sim.CatCompute, sim.CatDMA, sim.CatNetwork, sim.CatSync}
	out := make([]sim.SpanEvent, n)
	end := 0.0
	for i := range out {
		if rng.Intn(4) == 0 {
			end += grid
		}
		p := rng.Intn(6)
		out[i] = sim.SpanEvent{
			Category: cats[rng.Intn(len(cats))],
			Device:   sim.Device(p % 3),
			Proc:     fmt.Sprintf("p%d", p),
			Resource: fmt.Sprintf("r%d", rng.Intn(3)),
			Phase:    fmt.Sprintf("ph%d", rng.Intn(2)),
			Start:    end - grid*float64(1+rng.Intn(5)),
			End:      end,
		}
	}
	return out
}

func shuffled(rng *rand.Rand, spans []sim.SpanEvent) []sim.SpanEvent {
	out := append([]sim.SpanEvent(nil), spans...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func TestCriticalPathMatchesOracleSynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 1 + rng.Intn(400)
		spans := tieSpans(rng, n, 0.25)
		makespan := spans[n-1].End
		checkAgainstOracle(t, fmt.Sprintf("emission order #%d", trial), spans, makespan)
		checkAgainstOracle(t, fmt.Sprintf("shuffled #%d", trial), shuffled(rng, spans), makespan)

		// Heavy ties: every end on a grid of four instants.
		heavy := tieSpans(rng, n, 1)
		for i := range heavy {
			heavy[i].End = float64(1 + i*4/n)
			heavy[i].Start = heavy[i].End - float64(1+rng.Intn(3))
		}
		checkAgainstOracle(t, fmt.Sprintf("heavy ties #%d", trial), heavy, 4)
		checkAgainstOracle(t, fmt.Sprintf("heavy ties shuffled #%d", trial), shuffled(rng, heavy), 4)

		// Zero-width spans, including some that end at the same
		// instants as real ones, are ignored.
		zero := append([]sim.SpanEvent(nil), spans...)
		for i := range zero {
			if rng.Intn(3) == 0 {
				zero[i].Start = zero[i].End
			}
		}
		checkAgainstOracle(t, fmt.Sprintf("zero-width #%d", trial), zero, makespan)
		checkAgainstOracle(t, fmt.Sprintf("zero-width shuffled #%d", trial), shuffled(rng, zero), makespan)

		// A makespan short of the last ends: spans starting at or past
		// it drop out, spans straddling it still count.
		cut := makespan * (0.3 + 0.6*rng.Float64())
		checkAgainstOracle(t, fmt.Sprintf("past makespan #%d", trial), spans, cut)
		checkAgainstOracle(t, fmt.Sprintf("past makespan shuffled #%d", trial), shuffled(rng, spans), cut)
	}
}

func TestCriticalPathMatchesOracleHeadlineStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale runs")
	}
	rng := rand.New(rand.NewSource(2))
	lu := trace.NewRecorder()
	rl, err := core.RunLU(core.LUConfig{N: 30000, B: 3000, BF: -1, L: -1, Mode: core.Hybrid, Observer: lu})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "LU headline", lu.SpansView(), rl.Seconds)
	checkAgainstOracle(t, "LU headline shuffled", shuffled(rng, lu.SpansView()), rl.Seconds)

	fw := trace.NewRecorder()
	rf, err := core.RunFW(core.FWConfig{N: 18432, B: 256, L1: -1, Mode: core.Hybrid, Observer: fw})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstOracle(t, "FW headline", fw.SpansView(), rf.Seconds)
}
