package analysis

import (
	"cmp"
	"slices"

	"codesign/internal/sim"
)

// Hop is one link of the critical path: an interval of the run during
// which the named activity was the last thing standing between the
// simulation and an earlier finish. Idle hops (Category CatIdle) mark
// gaps where no recorded span was running — scheduling slack the
// instrumentation did not cover.
type Hop struct {
	// Proc is the span's process (logical actor) name.
	Proc string
	// Resource is the contended resource the span held.
	Resource string
	// Phase is the algorithm phase the span belongs to.
	Phase string
	// Category is the span's activity class (compute, memory, ...).
	Category sim.Category
	// Device is the hardware side that executed the span.
	Device sim.Device
	// Start and End bound the hop's interval in virtual seconds.
	Start float64
	// End is the hop's exclusive upper bound in virtual seconds.
	End float64
}

// Duration returns End - Start.
func (h Hop) Duration() float64 { return h.End - h.Start }

// ExtractCriticalPath walks the span stream backward from the makespan
// and returns the dependency-weighted chain of activities that set it,
// ordered by time. At every instant t it asks "what was the last span
// to finish at or before t?" — that span's completion gated everything
// after it, so it joins the path and the walk continues from its start.
// Gaps between a hop and the next finisher become idle hops, so the hop
// durations partition [0, makespan] exactly and sum to the makespan.
//
// Ties between spans finishing at the same instant break toward (in
// order): the process of the previous hop (chains stay on one process
// when possible), the more fundamental category (compute before data
// movement before waiting), the earlier start (longer spans explain
// more of the timeline), then process and resource name — so the path
// is deterministic for a deterministic simulation.
//
// Adjacent hops that continue the same activity (same process,
// resource, phase and category, touching in time) are coalesced.
func ExtractCriticalPath(spans []sim.SpanEvent, makespan float64) []Hop {
	if makespan <= 0 {
		return nil
	}
	// Positive-width spans only, ordered by End ascending: the walk
	// scans down for the latest finisher at or before t. The
	// filter keeps int32 indices into spans (88-byte structs) rather
	// than copies, and reads them in place. Recorder emission order
	// already has nondecreasing ends, so the indices are sorted only
	// when that order does not hold (callers that pass reordered
	// spans). Among equal ends the walk compares every candidate under
	// better's tie-break order, so which order they sit in does not
	// change the path.
	idx := make([]int32, 0, len(spans))
	inOrder := true
	for i := range spans {
		s := &spans[i]
		if s.End > s.Start && s.Start < makespan {
			if n := len(idx); n > 0 && s.End < spans[idx[n-1]].End {
				inOrder = false
			}
			idx = append(idx, int32(i))
		}
	}
	if !inOrder {
		slices.SortFunc(idx, func(a, b int32) int {
			if c := cmp.Compare(spans[a].End, spans[b].End); c != 0 {
				return c
			}
			return cmp.Compare(a, b)
		})
	}

	// The walk records its hops back to front as pointer-free steps
	// (span index, or -1 for idle, and interval), so growing the list
	// costs the collector nothing; Hops are built once at the end.
	var rev []step
	idle := func(start, end float64) {
		if end > start {
			rev = append(rev, step{span: -1, start: start, end: end})
		}
	}

	t := makespan
	prevProc := ""
	i := len(idx) // idx[:i] are the spans finishing at or before t
	for t > 0 {
		// Latest finisher at or before t. t never increases, so the
		// boundary only moves down: one backward scan over idx serves
		// the whole walk.
		for i > 0 && spans[idx[i-1]].End > t {
			i--
		}
		if i == 0 {
			idle(0, t)
			break
		}
		bi := idx[i-1]
		maxEnd := spans[bi].End
		for j := i - 2; j >= 0 && spans[idx[j]].End == maxEnd; j-- {
			if better(&spans[idx[j]], &spans[bi], prevProc) {
				bi = idx[j]
			}
		}
		idle(maxEnd, t)
		start := spans[bi].Start
		if start < 0 {
			start = 0
		}
		rev = append(rev, step{span: bi, start: start, end: maxEnd})
		t = start
		prevProc = spans[bi].Proc
	}

	// Chronological order with continuations coalesced in place (the
	// write index never passes the read index); the Hop list is then
	// allocated once, at its final size.
	slices.Reverse(rev)
	merged := rev[:0]
	for _, st := range rev {
		if m := len(merged); m > 0 && continues(merged[m-1].hop(spans), st.hop(spans)) {
			merged[m-1].end = st.end
			continue
		}
		merged = append(merged, st)
	}
	out := make([]Hop, len(merged))
	for k, st := range merged {
		out[k] = st.hop(spans)
	}
	return out
}

// step is one critical-path hop as the walk finds it: the index of the
// span that gated the interval [start, end), or -1 for an idle gap.
type step struct {
	span       int32
	start, end float64
}

// hop builds the step's Hop from its span.
func (s step) hop(spans []sim.SpanEvent) Hop {
	if s.span < 0 {
		return Hop{Category: sim.CatIdle, Start: s.start, End: s.end}
	}
	sp := &spans[s.span]
	return Hop{Proc: sp.Proc, Resource: sp.Resource, Phase: sp.Phase,
		Category: sp.Category, Device: sp.Device, Start: s.start, End: s.end}
}

// continues reports whether h continues p's activity (same process,
// resource, phase and category, touching in time), so the two
// coalesce into one hop.
func continues(p, h Hop) bool {
	return p.End == h.Start && p.Proc == h.Proc && p.Resource == h.Resource &&
		p.Phase == h.Phase && p.Category == h.Category
}

// better reports whether candidate a beats b under the tie-break rules
// (both end at the same instant).
func better(a, b *sim.SpanEvent, prevProc string) bool {
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

// PathTotal sums hop durations. For a path from ExtractCriticalPath the
// hops partition [0, makespan], so this equals the makespan up to
// floating-point summation order.
func PathTotal(path []Hop) float64 {
	var t float64
	for _, h := range path {
		t += h.Duration()
	}
	return t
}
