package main

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"codesign/internal/core"
	"codesign/internal/trace"
)

func TestMachineByName(t *testing.T) {
	// The -machine flag accepts every preset name and rejects unknown ones
	// before any simulation starts.
	for _, name := range []string{"xd1", "xt3", "src6", "rasc"} {
		o := small("mm") // mm's block size is free of the preset's core count
		o.Machine = name
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !bytes.HasPrefix(out, []byte("machine: ")) {
			t.Fatalf("%s: report does not open with the machine line:\n%s", name, out)
		}
	}
	o := small("lu")
	o.Machine = "cray-3"
	out, err := runCaptured(t, o)
	if err == nil {
		t.Fatal("unknown machine accepted")
	}
	if len(out) != 0 {
		t.Fatalf("unknown machine printed before failing:\n%s", out)
	}
}

// small returns a fast end-to-end configuration for the given app.
func small(app string) options {
	o := options{App: app, Machine: "xd1", N: 120, B: 20, PEs: 4, Mode: "hybrid",
		BF: -1, L: -1, L1: -1, Functional: true, Seed: 1, Metrics: true}
	switch app {
	case "fw":
		o.N, o.B = 96, 8
	case "mm":
		o.N, o.B = 96, 0
	case "cg":
		o.N, o.B, o.PEs, o.Functional = 128, 0, 0, false
	case "spmv":
		o.N, o.B, o.Density = 256, 0, 0.02
	}
	return o
}

// runCaptured runs o with os.Stdout redirected to a temporary file and
// returns everything the run printed there.
func runCaptured(t *testing.T, o options) ([]byte, error) {
	t.Helper()
	var runErr error
	out := captured(t, func() { runErr = run(o) })
	return out, runErr
}

// captured calls fn with os.Stdout redirected to a temporary file and
// returns everything fn printed there.
func captured(t *testing.T, fn func()) []byte {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stdout := os.Stdout
	os.Stdout = f
	fn()
	os.Stdout = stdout
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkGolden compares a run's stdout with testdata/<name>.golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s: stdout drifted from %s:\n--- got ---\n%s--- want ---\n%s", name, path, got, want)
	}
}

func TestRunAllApps(t *testing.T) {
	// End-to-end through the CLI's run path at small sizes, with the
	// analysis report on to exercise every app's expected-binding path.
	// The printed report is pinned byte for byte.
	for _, app := range []string{"lu", "fw", "mm", "spmv", "chol", "qr", "cg"} {
		o := small(app)
		o.Analyze = true
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		checkGolden(t, app, out)
	}
	if err := run(options{App: "fft", Machine: "xd1", N: 10, B: 2, Mode: "hybrid", BF: -1, L: -1, L1: -1, Seed: 1}); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunExportFiles(t *testing.T) {
	dir := t.TempDir()
	o := small("lu")
	o.Metrics = false
	o.MetricsOut = filepath.Join(dir, "metrics.csv")
	o.SpansOut = filepath.Join(dir, "spans.csv")
	o.TraceOut = filepath.Join(dir, "trace.json")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.MetricsOut, o.SpansOut, o.TraceOut} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("%s not written: %v", p, err)
		}
		if st.Size() == 0 {
			t.Fatalf("%s is empty", p)
		}
	}
	// The metrics CSV must parse as RFC 4180 with the registry header.
	f, err := os.Open(o.MetricsOut)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatalf("metrics CSV malformed: %v", err)
	}
	if len(rows) < 2 {
		t.Fatalf("metrics CSV has %d rows, want header plus data", len(rows))
	}
	want := []string{"kind", "name", "key", "value"}
	for i, h := range want {
		if rows[0][i] != h {
			t.Fatalf("metrics CSV header %v, want %v", rows[0], want)
		}
	}
	found := false
	for _, r := range rows[1:] {
		if r[1] == "overlap.efficiency" {
			found = true
		}
	}
	if !found {
		t.Fatal("metrics CSV missing overlap.efficiency")
	}
}

func TestRunSpansJSONAndDiffAgainst(t *testing.T) {
	dir := t.TempDir()
	o := small("lu")
	o.Metrics, o.Functional = false, false
	o.SpansJSON = filepath.Join(dir, "base.spans")
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	meta, spans, err := trace.ReadSpansFile(o.SpansJSON)
	if err != nil {
		t.Fatalf("persisted spans unreadable: %v", err)
	}
	if meta.App != "lu" || meta.Makespan <= 0 || len(spans) == 0 {
		t.Fatalf("bad persisted meta %+v with %d spans", meta, len(spans))
	}

	// A second run with a different design diffs against the archive.
	o2 := small("lu")
	o2.Metrics, o2.Functional = false, false
	o2.PEs = 2
	o2.DiffAgainst = o.SpansJSON
	if err := run(o2); err != nil {
		t.Fatalf("diff-against: %v", err)
	}

	// A bad base file is a clean error, not a panic.
	o2.DiffAgainst = filepath.Join(dir, "missing.spans")
	if err := run(o2); err == nil {
		t.Fatal("missing -diff-against file accepted")
	}
}

func TestRunWithFaults(t *testing.T) {
	// The spec lives in testdata so the printed path, and with it the
	// golden report, is stable.
	path := filepath.Join("testdata", "faults.json")
	o := small("lu")
	o.Functional = false // degraded mode reshapes the schedule under real data
	o.Metrics = false
	o.Faults = path
	out, err := runCaptured(t, o)
	if err != nil {
		t.Fatalf("faulted lu run: %v", err)
	}
	checkGolden(t, "lu-faults", out)

	// Apps without fault support must reject the flag up front.
	bad := small("mm")
	bad.Faults = path
	if err := run(bad); err == nil {
		t.Fatal("mm accepted -faults")
	}
}

func TestRunTimelineAllApps(t *testing.T) {
	// -timeline charts the engine's trace hook, so every app must
	// attach it: each chart needs at least one row with a busy cell.
	for _, app := range core.AppNames() {
		o := small(app)
		o.Metrics = false
		o.Timeline = true
		out, err := runCaptured(t, o)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		_, chart, ok := bytes.Cut(out, []byte("activity timeline (# = busy):\n"))
		if !ok {
			t.Fatalf("%s: no timeline in output:\n%s", app, out)
		}
		busy := false
		for _, row := range bytes.Split(chart, []byte("\n")) {
			if _, cells, ok := bytes.Cut(row, []byte("|")); ok && bytes.Contains(cells, []byte("#")) {
				busy = true
				break
			}
		}
		if !busy {
			t.Errorf("%s: timeline has no busy row:\n%s", app, chart)
		}
	}
}

func TestRunDefaultsToTableSizes(t *testing.T) {
	// N=B=0 takes the app's table sizes, which for fw differ from lu's.
	out, err := runCaptured(t, options{App: "fw", Machine: "xd1", Mode: "hybrid", BF: -1, L: -1, L1: -1, Seed: 1})
	if err != nil {
		t.Fatalf("fw at table sizes: %v", err)
	}
	if want := "problem:           n=18432 b=256\n"; !bytes.Contains(out, []byte(want)) {
		t.Fatalf("report lacks %q:\n%s", want, out)
	}
}

func TestRunTimelineOnlyAfterSuccess(t *testing.T) {
	// A failed run prints its error, not an empty chart.
	o := small("fw")
	o.Metrics = false
	o.Timeline = true
	o.N = 97 // not a multiple of b*p
	out, err := runCaptured(t, o)
	if err == nil {
		t.Fatal("n=97 b=8 accepted")
	}
	if bytes.Contains(out, []byte("activity timeline")) {
		t.Fatalf("failed run printed a timeline:\n%s", out)
	}
}

func TestTimelineReportsDroppedEvents(t *testing.T) {
	col := &trace.Collector{Limit: 3}
	for i := 0; i < 5; i++ {
		col.Record(float64(i), "p", "resume")
	}
	out := captured(t, func() { printTimeline(col) })
	if want := "timeline: 2 events past the 3-event limit are not charted\n"; !bytes.HasSuffix(out, []byte(want)) {
		t.Fatalf("chart does not end with %q:\n%s", want, out)
	}
	// Under the limit nothing is said.
	out = captured(t, func() { printTimeline(&trace.Collector{Limit: 10}) })
	if bytes.Contains(out, []byte("not charted")) {
		t.Fatalf("undropped chart reports drops:\n%s", out)
	}
}
