package sweep

import (
	"bytes"
	"slices"
	"testing"

	"codesign/internal/core"
)

// FuzzGrid feeds JSON to ReadGrid. On every grid it accepts, the point
// count must match the enumeration, every point must name a table app,
// and model evaluation must not panic. It calls the evaluator below
// safeEvaluate's recover, so a panic fails the fuzz target instead of
// turning into an infeasible point. The seed corpus lives under
// testdata/fuzz/FuzzGrid; run with
//
//	go test -run='^$' -fuzz=FuzzGrid -fuzztime=20s ./internal/sweep
func FuzzGrid(f *testing.F) {
	apps := core.AppNames()
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGrid(bytes.NewReader(data))
		if err != nil {
			return
		}
		n := g.NumPoints()
		if n > 4096 {
			return
		}
		pts := g.Points()
		if n != len(pts) {
			t.Fatalf("NumPoints() = %d, Points() has %d", n, len(pts))
		}
		ev := newEvaluator(0)
		for _, pt := range pts {
			if !slices.Contains(apps, pt.App) {
				t.Fatalf("point %+v: app not in the table %v", pt, apps)
			}
			ev.evaluate(pt, MethodModel)
		}
	})
}
