package sweep

import "fmt"

// dominates reports whether outcome a dominates b on the three sweep
// objectives: throughput up, FPGA area down, DRAM bandwidth demand
// down. Domination requires a to be no worse on every objective and
// strictly better on at least one, so duplicate points never eliminate
// each other. It takes pointers: markPareto's quadratic scan would
// otherwise copy two whole Outcomes per comparison.
func dominates(a, b *Outcome) bool {
	if a.GFLOPS < b.GFLOPS || a.Slices > b.Slices || a.BdGBps > b.BdGBps {
		return false
	}
	return a.GFLOPS > b.GFLOPS || a.Slices < b.Slices || a.BdGBps < b.BdGBps
}

// markPareto sets Outcome.Pareto on every non-dominated feasible point
// and returns their indices in ascending order. Infeasible points
// never join the frontier. Quadratic in the feasible count, which is
// fine for the grid sizes MaxPoints admits in practice.
func markPareto(outcomes []Outcome) []int {
	var frontier []int
	for i := range outcomes {
		if !outcomes[i].OK {
			continue
		}
		dominated := false
		for j := range outcomes {
			if i == j || !outcomes[j].OK {
				continue
			}
			if dominates(&outcomes[j], &outcomes[i]) {
				dominated = true
				break
			}
		}
		if !dominated {
			outcomes[i].Pareto = true
			frontier = append(frontier, i)
		}
	}
	return frontier
}

// SensitivityTable summarizes how one grid axis moves the headline
// throughput: one row per distinct axis value, aggregated over every
// point sharing that value. Only axes with at least two distinct
// values get a table — a fixed axis has no sensitivity to report.
type SensitivityTable struct {
	// Param names the axis ("app", "machine", "mode", "nodes", "n",
	// "b", "pes", "bf", "l").
	Param string `json:"param"`
	// Rows holds one aggregate per distinct axis value, in first-seen
	// (enumeration) order.
	Rows []SensitivityRow `json:"rows"`
}

// SensitivityRow aggregates every grid point sharing one axis value.
type SensitivityRow struct {
	// Value is the axis value, formatted ("xd1", "8", "-1").
	Value string `json:"value"`
	// Count is the number of grid points with this value; OK the
	// feasible subset.
	Count int `json:"count"`
	// OK counts the feasible points.
	OK int `json:"ok"`
	// BestGFLOPS is the maximum throughput over the feasible points;
	// MeanGFLOPS their average. Zero when no point was feasible.
	BestGFLOPS float64 `json:"best_gflops"`
	// MeanGFLOPS is the average feasible throughput.
	MeanGFLOPS float64 `json:"mean_gflops"`
}

// axes lists the sensitivity dimensions and how to read them off a
// point.
var axes = []struct {
	name string
	key  func(Point) string
}{
	{"app", func(p Point) string { return p.App }},
	{"machine", func(p Point) string { return p.Machine }},
	{"mode", func(p Point) string { return p.Mode }},
	{"nodes", func(p Point) string { return fmt.Sprint(p.Nodes) }},
	{"n", func(p Point) string { return fmt.Sprint(p.N) }},
	{"density", func(p Point) string { return fmt.Sprint(p.Density) }},
	{"b", func(p Point) string { return fmt.Sprint(p.B) }},
	{"pes", func(p Point) string { return fmt.Sprint(p.PEs) }},
	{"bf", func(p Point) string { return fmt.Sprint(p.BF) }},
	{"l", func(p Point) string { return fmt.Sprint(p.L) }},
}

// sensitivity builds one table per axis that actually varies. Rows are
// emitted in the order values first appear in the (deterministic)
// point enumeration, so the output is stable across runs and worker
// counts.
func sensitivity(points []Point, outcomes []Outcome) []SensitivityTable {
	var tables []SensitivityTable
	for _, ax := range axes {
		order := make([]string, 0, 8)
		rows := make(map[string]*SensitivityRow)
		sums := make(map[string]float64)
		for i, pt := range points {
			v := ax.key(pt)
			row, ok := rows[v]
			if !ok {
				row = &SensitivityRow{Value: v}
				rows[v] = row
				order = append(order, v)
			}
			row.Count++
			if outcomes[i].OK {
				row.OK++
				sums[v] += outcomes[i].GFLOPS
				if outcomes[i].GFLOPS > row.BestGFLOPS {
					row.BestGFLOPS = outcomes[i].GFLOPS
				}
			}
		}
		if len(order) < 2 {
			continue
		}
		t := SensitivityTable{Param: ax.name}
		for _, v := range order {
			row := rows[v]
			if row.OK > 0 {
				row.MeanGFLOPS = sums[v] / float64(row.OK)
			}
			t.Rows = append(t.Rows, *row)
		}
		tables = append(tables, t)
	}
	return tables
}
