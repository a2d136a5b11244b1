package sim_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"codesign/internal/sim"
	"codesign/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenProgram runs one seeded random program that exercises every
// scheduling primitive — timed waits, typed spans, resource contention,
// fused charge sequences, mailboxes, signals, barriers, scheduler
// callbacks and processes spawned mid-run — and writes its complete raw
// event stream (the legacy Trace hook) and typed span stream (a
// trace.Recorder) to w. Some seeds stop at a horizon, deadlock or panic,
// so the teardown paths are pinned too. Floats print at full precision.
func goldenProgram(w *bytes.Buffer, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	e := sim.New()
	e.Trace = func(t float64, proc, action string) {
		fmt.Fprintf(w, "ev %v %s %s\n", t, proc, action)
	}
	rec := trace.NewRecorder()
	e.Observe(rec)

	nProcs := 3 + rng.Intn(5)
	cpu := sim.NewResource(e, "cpu", 1+rng.Intn(2))
	cpu.SetDevice(sim.DeviceCPU)
	fpga := sim.NewResource(e, "fpga", 1)
	fpga.SetDevice(sim.DeviceFPGA)
	mb := sim.NewMailbox(e, "box")
	sig := sim.NewSignal(e, "sig")
	bar := sim.NewBarrier(e, "bar", nProcs)

	type op struct {
		kind int
		dt   float64
		n    int
	}
	scripts := make([][]op, nProcs)
	for i := range scripts {
		for j := 1 + rng.Intn(8); j > 0; j-- {
			scripts[i] = append(scripts[i], op{kind: rng.Intn(11), dt: rng.Float64(), n: 2 + rng.Intn(3)})
		}
	}
	charges := func(o op) []sim.Charge {
		cs := make([]sim.Charge, o.n)
		for k := range cs {
			cs[k] = sim.Charge{Cat: sim.Category(k % 3), Bytes: int64(64 * k), Dt: o.dt / float64(k+1)}
		}
		return cs
	}
	fired := false
	for i := 0; i < nProcs; i++ {
		i := i
		body := func(p *sim.Proc) {
			for _, o := range scripts[i] {
				switch o.kind {
				case 0:
					p.Wait(o.dt)
				case 1:
					p.WaitSpanOn(sim.CatCompute, sim.DeviceCPU, "local", 0, o.dt)
				case 2:
					cpu.UseCat(p, sim.CatCompute, 0, o.dt)
				case 3:
					cpu.UseSeq(p, charges(o))
				case 4:
					p.WaitSeq(sim.DeviceDRAM, "dram", charges(o))
				case 5:
					mb.Put(i)
					p.Wait(o.dt / 2)
				case 6:
					mb.TryGet()
					p.SetPhase(fmt.Sprintf("ph%d", o.n))
				case 7:
					p.WaitUntil(p.Now() + o.dt)
				case 8:
					dt := o.dt
					e.Go(sim.Name("job", i, o.n), func(c *sim.Proc) {
						fpga.UseCat(c, sim.CatCompute, 128, dt)
					})
				case 9:
					if !fired {
						fired = true
						e.At(p.Now()+o.dt, sig.Fire)
					}
				case 10:
					if fired {
						sig.Wait(p)
					}
				}
			}
			bar.Arrive(p)
		}
		if i == nProcs-1 && seed%3 == 1 {
			e.GoAt(rng.Float64(), sim.Name("late", i), body)
		} else {
			e.Go(sim.Name("p", i), body)
		}
	}
	if seed%7 == 5 {
		never := sim.NewMailbox(e, "never")
		e.Go("stuck", func(p *sim.Proc) { never.Get(p) })
	}
	if seed%11 == 4 {
		e.Go("bad", func(p *sim.Proc) {
			p.Wait(0.5)
			panic("boom")
		})
	}
	until := 0.0
	if seed%5 == 3 {
		until = 1.5
	}
	err := e.Run(until)
	fmt.Fprintf(w, "end t=%v err=%v\n", e.Now(), err)
	for _, s := range rec.Spans() {
		fmt.Fprintf(w, "span %v %v %s %s %s %s %s %d\n",
			s.Start, s.End, s.Category, s.Device, s.Proc, s.Resource, s.Phase, s.Bytes)
	}
}

// TestGoldenTrace pins the engine's exact event order: the raw event
// and span streams of 40 seeded programs must match testdata byte for
// byte. Regenerate only for a deliberate change of simulated behaviour,
// with go test ./internal/sim -run TestGoldenTrace -update.
func TestGoldenTrace(t *testing.T) {
	var got bytes.Buffer
	for seed := int64(1); seed <= 40; seed++ {
		fmt.Fprintf(&got, "# seed %d\n", seed)
		goldenProgram(&got, seed)
	}
	path := filepath.Join("testdata", "golden_trace.txt")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		gl, wl := bytes.Split(got.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length differs from %s: got %d lines, want %d", path, len(gl), len(wl))
	}
}
