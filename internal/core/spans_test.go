package core

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"codesign/internal/fault"
	"codesign/internal/trace"
)

// spanRun is one run spans.golden pins: its name and how to run it
// with the given event hook and observer attached.
type spanRun struct {
	name string
	run  func(s Spec) error
}

// spanRuns are every goldenRuns case, the three LU ablations,
// Cholesky's baselines, unpipelined panel and a split that gives both
// the processor and the FPGA a share of every trailing update, and the
// stripe pipelines: mm's baselines, an FPGA-bound split (the array
// always finds a stripe waiting) and a CPU-bound one (it parks on an
// empty queue), mm under processor and array faults, a streamed spmv
// apply of several chunks, and one opMM block.
func spanRuns(t *testing.T) []spanRun {
	var runs []spanRun
	for _, g := range goldenRuns(t) {
		runs = append(runs, spanRun{g.name, func(s Spec) error {
			gs := g.spec
			gs.Trace, gs.Observer = s.Trace, s.Observer
			_, err := Simulate(g.app, gs)
			return err
		}})
	}
	lu := appDirects["lu"].spec
	for _, ab := range []struct {
		name string
		set  func(c *LUConfig)
	}{
		{"lu DisableStripeOverlap", func(c *LUConfig) { c.DisableStripeOverlap = true }},
		{"lu InterruptibleRoutines", func(c *LUConfig) { c.InterruptibleRoutines = true }},
		{"lu WholeTaskOpMM", func(c *LUConfig) { c.WholeTaskOpMM = true }},
	} {
		runs = append(runs, spanRun{ab.name, func(s Spec) error {
			c := LUConfig{N: lu.N, B: lu.B, PEs: lu.PEs, BF: lu.BF, L: lu.L,
				Functional: lu.Functional, Seed: lu.Seed, Trace: s.Trace, Observer: s.Observer}
			ab.set(&c)
			_, err := RunLU(c)
			return err
		}})
	}
	for _, m := range []struct {
		name string
		set  func(s *Spec)
	}{
		{"chol processor-only", func(s *Spec) { s.Mode = ProcessorOnly }},
		{"chol fpga-only", func(s *Spec) { s.Mode = FPGAOnly }},
		{"chol L=0", func(s *Spec) { s.L = 0 }},
		{"chol bf=8", func(s *Spec) { s.BF = 8 }},
	} {
		runs = append(runs, spanRun{m.name, func(s Spec) error {
			cs := appDirects["chol"].spec
			cs.Trace, cs.Observer = s.Trace, s.Observer
			m.set(&cs)
			_, err := Simulate("chol", cs)
			return err
		}})
	}
	mmFaults := mustInjector(t, &fault.Spec{Window: 1e-6, Events: []fault.Event{
		{Kind: fault.CPUSlow, Node: 1, Start: 0, Factor: 0.4},
		{Kind: fault.FPGAStall, Node: 2, Start: 2e-6, Duration: 3e-6},
	}}, 6)
	for _, m := range []struct {
		name string
		set  func(s *Spec)
	}{
		{"mm processor-only", func(s *Spec) { s.Mode = ProcessorOnly }},
		{"mm fpga-only", func(s *Spec) { s.Mode = FPGAOnly }},
		{"mm bf=48", func(s *Spec) { s.BF = 48 }},
		{"mm bf=8", func(s *Spec) { s.BF = 8 }},
		{"mm faults", func(s *Spec) { s.Functional, s.Faults = false, mmFaults }},
	} {
		runs = append(runs, spanRun{m.name, func(s Spec) error {
			ms := appDirects["mm"].spec
			ms.Trace, ms.Observer = s.Trace, s.Observer
			m.set(&ms)
			_, err := runMM(ms)
			return err
		}})
	}
	return append(runs,
		spanRun{"spmv streamed", func(s Spec) error {
			_, err := runMV(Spec{N: 1024, PEs: 2, BF: 640, Density: 0.02, RHS: 1, Seed: 1,
				Trace: s.Trace, Observer: s.Observer})
			return err
		}},
		spanRun{"opmm", func(s Spec) error {
			_, err := runOpMM(Spec{N: 120, B: 120, PEs: 4, BF: -1, Mode: Hybrid,
				Trace: s.Trace, Observer: s.Observer})
			return err
		}},
	)
}

// TestSpanStreamGolden pins, for each spanRuns case, the SHA-256 of the
// ordered engine event stream (time, process, action) and of the
// ordered span list a trace.Recorder collects. results.golden pins
// aggregates only; this pins the order in which every process acts, so
// a refactor of an app's node program cannot reorder it unnoticed.
func TestSpanStreamGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, r := range spanRuns(t) {
		events, nEvents := sha256.New(), 0
		rec := trace.NewRecorder()
		err := r.run(Spec{Observer: rec, Trace: func(at float64, proc, action string) {
			nEvents++
			fmt.Fprintf(events, "%s %s %s\n", fmtFloat(at), proc, action)
		}})
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		spans := rec.Spans()
		fmt.Fprintf(&buf, "%s: events=%d %s spans=%d %s\n", r.name, nEvents, sum(events), len(spans), spanDigest(rec))
	}
	path := filepath.Join("testdata", "spans.golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(buf.String(), "\n"), strings.Split(string(want), "\n")
	if len(got) != len(wantLines) {
		t.Fatalf("%s has %d lines, runs give %d", path, len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("span stream drifted from %s:\n got  %s\n want %s", path, got[i], wantLines[i])
		}
	}
}

func fmtFloat(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func sum(h hash.Hash) string { return fmt.Sprintf("sha256=%x", h.Sum(nil)) }

// spanDigest hashes every field of every recorded span, in order.
func spanDigest(rec *trace.Recorder) string {
	h := sha256.New()
	for _, s := range rec.Spans() {
		fmt.Fprintf(h, "%d %d %s %s %s %d %s %s\n", s.Category, s.Device, s.Proc, s.Resource, s.Phase,
			s.Bytes, fmtFloat(s.Start), fmtFloat(s.End))
	}
	return sum(h)
}
