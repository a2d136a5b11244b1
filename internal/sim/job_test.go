package sim_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"codesign/internal/sim"
	"codesign/internal/trace"
)

// jobRig is what a job scenario drives: an engine plus launch, cursor
// launch, detach and await functions that run jobs either through the
// Engine or through refLaunch's and refCursor's processes.
type jobRig struct {
	e      *sim.Engine
	launch func(name, phase string, steps ...sim.Step) *sim.Signal
	cursor func(name, phase string, next func(i int) (sim.Step, bool)) *sim.Signal
	detach func(done *sim.Signal)
	await  func(p *sim.Proc, done *sim.Signal)
}

// refLaunch is the process form of a job: a spawned process that runs
// the same steps with Proc.Do and fires a done signal, as FPGA jobs
// were simulated before jobs existed.
func refLaunch(e *sim.Engine, name, phase string, steps ...sim.Step) *sim.Signal {
	done := sim.NewSignal(e, name+".done")
	e.Go(name, func(p *sim.Proc) {
		p.SetPhase(phase)
		for _, s := range steps {
			p.Do(s)
		}
		done.Fire()
	})
	return done
}

// refCursor is the process form of a cursor job: a spawned process
// that, for each step, takes a message from the Recv mailbox, waits on
// the Await signal, makes the charge with Proc.Do unless the step is
// gate-only, and runs the After hook, then fires a done signal.
func refCursor(e *sim.Engine, name, phase string, next func(i int) (sim.Step, bool)) *sim.Signal {
	done := sim.NewSignal(e, name+".done")
	e.Go(name, func(p *sim.Proc) {
		p.SetPhase(phase)
		for i := 0; ; i++ {
			s, ok := next(i)
			if !ok {
				break
			}
			gateOnly := s.Res == nil && s.Name == "" && (s.Recv != nil || s.Await != nil)
			if s.Recv != nil {
				s.Recv.Get(p)
			}
			if s.Await != nil {
				s.Await.Wait(p)
			}
			if !gateOnly {
				p.Do(s)
			}
			if s.After != nil {
				s.After()
			}
		}
		done.Fire()
	})
	return done
}

// jobRun is everything one run of a scenario observed.
type jobRun struct {
	events, spans []string
	popped        int64
	end           float64
	err           error
}

// runJobScenario runs build once with real jobs and once with the
// process reference and returns both runs.
func runJobScenario(build func(r jobRig) (until float64)) (job, ref jobRun) {
	run := func(asJob bool) jobRun {
		var out jobRun
		e := sim.New()
		var ctr sim.Counters
		e.SetCounters(&ctr)
		e.Trace = func(t float64, proc, action string) {
			out.events = append(out.events, fmt.Sprintf("%v %s %s", t, proc, action))
		}
		rec := trace.NewRecorder()
		e.Observe(rec)
		r := jobRig{e: e}
		if asJob {
			r.launch = func(name, phase string, steps ...sim.Step) *sim.Signal {
				return e.Launch(name, phase, steps)
			}
			r.cursor, r.detach, r.await = e.LaunchCursor, e.Detach, e.Await
		} else {
			r.launch = func(name, phase string, steps ...sim.Step) *sim.Signal {
				return refLaunch(e, name, phase, steps...)
			}
			r.cursor = func(name, phase string, next func(int) (sim.Step, bool)) *sim.Signal {
				return refCursor(e, name, phase, next)
			}
			r.detach = func(*sim.Signal) {}
			r.await = func(p *sim.Proc, done *sim.Signal) { done.Wait(p) }
		}
		out.err = e.Run(build(r))
		out.end = e.Now()
		out.popped = ctr.EventsPopped.Load()
		for _, s := range rec.Spans() {
			out.spans = append(out.spans, fmt.Sprintf("%v %v %s %s %s %s %s %d",
				s.Start, s.End, s.Category, s.Device, s.Proc, s.Resource, s.Phase, s.Bytes))
		}
		return out
	}
	return run(true), run(false)
}

// assertSameRun fails unless the job run and the process reference
// produced identical event streams, span streams, pop counts, end
// times and errors.
func assertSameRun(t *testing.T, job, ref jobRun) {
	t.Helper()
	diff := func(what string, got, want []string) {
		for i := 0; i < len(got) || i < len(want); i++ {
			g, w := "<missing>", "<missing>"
			if i < len(got) {
				g = got[i]
			}
			if i < len(want) {
				w = want[i]
			}
			if g != w {
				t.Fatalf("%s differ at %d:\n  job: %s\n  ref: %s", what, i, g, w)
			}
		}
	}
	diff("events", job.events, ref.events)
	diff("spans", job.spans, ref.spans)
	if job.popped != ref.popped {
		t.Errorf("events popped: job %d, ref %d", job.popped, ref.popped)
	}
	if job.end != ref.end {
		t.Errorf("end time: job %v, ref %v", job.end, ref.end)
	}
	if fmt.Sprint(job.err) != fmt.Sprint(ref.err) {
		t.Errorf("error: job %v, ref %v", job.err, ref.err)
	}
	if len(job.events) == 0 || len(job.spans) == 0 {
		t.Fatal("scenario emitted nothing")
	}
}

// fpgaNode is a node's resources as machine builds them: a CPU, an
// FPGA array and a DRAM streaming channel.
type fpgaNode struct {
	cpu, array, dram *sim.Resource
}

func newFPGANode(e *sim.Engine, id int) fpgaNode {
	n := fpgaNode{
		cpu:   sim.NewResource(e, sim.Name("cpu", id), 1),
		array: sim.NewResource(e, sim.Name("fpga", id), 1),
		dram:  sim.NewResource(e, sim.Name("dram", id), 1),
	}
	n.cpu.SetDevice(sim.DeviceCPU)
	n.array.SetDevice(sim.DeviceFPGA)
	n.dram.SetDevice(sim.DeviceDRAM)
	return n
}

func (n fpgaNode) fill(dt float64) sim.Step {
	return sim.Step{Charge: sim.Charge{Cat: sim.CatDMA, Dt: dt},
		Dev: sim.DeviceDRAM, Name: n.array.Name() + ".fill"}
}

func (n fpgaNode) compute(dt float64) sim.Step {
	return sim.Step{Charge: sim.Charge{Cat: sim.CatCompute, Dt: dt}, Res: n.array}
}

func (n fpgaNode) stream(bytes int64, dt float64) sim.Step {
	return sim.Step{Charge: sim.Charge{Cat: sim.CatDMA, Bytes: bytes, Dt: dt}, Res: n.dram}
}

// The job shapes of the FPGA designs, each run as a job and as a
// process: every observable stream must be identical.
func TestJobMatchesProcess(t *testing.T) {
	scenarios := []struct {
		name  string
		build func(r jobRig) float64
	}{
		{"fill-then-compute", func(r jobRig) float64 {
			n := newFPGANode(r.e, 0)
			r.e.Go("node0.cpu", func(p *sim.Proc) {
				p.SetPhase("opmm")
				for k := 0; k < 3; k++ {
					done := r.launch(sim.Name("lu.fpga", k), "opmm", n.fill(0.25), n.compute(1.5))
					n.cpu.UseSeq(p, []sim.Charge{{Cat: sim.CatNetwork, Dt: 0.125}, {Cat: sim.CatCompute, Dt: 0.5}})
					r.await(p, done)
				}
			})
			return 0
		}},
		{"compute-only", func(r jobRig) float64 {
			n := newFPGANode(r.e, 0)
			r.e.Go("cg.cpu", func(p *sim.Proc) {
				for k := 0; k < 3; k++ {
					done := r.launch(sim.Name("cg.mv", k), "apply", n.compute(0.75))
					n.cpu.UseCat(p, sim.CatCompute, 0, 1)
					r.await(p, done)
				}
				// A job already finished when awaited, and a zero and a
				// negative duration.
				done := r.launch("cg.mv.z", "apply", n.compute(0), n.compute(-1))
				p.Wait(2)
				r.await(p, done)
			})
			return 0
		}},
		{"contended-stream", func(r jobRig) float64 {
			n := newFPGANode(r.e, 0)
			r.e.Go("hog", func(p *sim.Proc) {
				n.dram.UseCat(p, sim.CatDMA, 64, 0.5)
				n.dram.UseCat(p, sim.CatDMA, 64, 0.5)
			})
			r.e.Go("spmv.cpu", func(p *sim.Proc) {
				a := r.launch("spmv.load.a", "load", n.stream(4096, 1))
				b := r.launch("spmv.load.b", "load", n.stream(2048, 0.5), n.compute(0.25))
				r.await(p, b)
				r.await(p, a)
			})
			return 0
		}},
		{"array-contention", func(r jobRig) float64 {
			nodes := []fpgaNode{newFPGANode(r.e, 0), newFPGANode(r.e, 1)}
			for i, n := range nodes {
				r.e.Go(sim.Name("node", i), func(p *sim.Proc) {
					first := r.launch(sim.Name("fw.fpga", i, 0), "op", n.fill(0.125), n.compute(1))
					second := r.launch(sim.Name("fw.fpga", i, 1), "op", n.fill(0.125), n.compute(1))
					n.cpu.UseCat(p, sim.CatCompute, 0, 0.5)
					r.await(p, first)
					r.await(p, second)
				})
			}
			return 0
		}},
		{"dilation", func(r jobRig) float64 {
			n := newFPGANode(r.e, 0)
			slowDRAM := func(start, dt float64) float64 { return dt * (2 + start) }
			stall := func(start, dt float64) float64 { return dt + 0.5*start }
			r.e.Go("node0.cpu", func(p *sim.Proc) {
				for k := 0; k < 2; k++ {
					fill := n.fill(0.25)
					fill.Dilate = slowDRAM
					work := n.compute(1)
					work.Dilate = stall
					in := n.stream(512, 0.125)
					in.Dilate = slowDRAM
					done := r.launch(sim.Name("qr.fpga", k), "update", in, fill, work)
					p.Wait(0.375)
					r.await(p, done)
				}
			})
			// A second launcher queues on the array, so the stall hook
			// is evaluated before the queued acquire.
			r.e.Go("node1.cpu", func(p *sim.Proc) {
				work := n.compute(0.5)
				work.Dilate = stall
				r.await(p, r.launch("chol.fpga", "opmm", work))
			})
			return 0
		}},
		{"horizon", func(r jobRig) float64 {
			n := newFPGANode(r.e, 0)
			r.e.Go("node0.cpu", func(p *sim.Proc) {
				for k := 0; k < 4; k++ {
					done := r.launch(sim.Name("fw.fpga", k), "op", n.fill(0.25), n.compute(1))
					r.launch(sim.Name("fw.side", k), "op", n.compute(0.5))
					r.await(p, done)
				}
			})
			return 2.6
		}},
		{"recv-empty", func(r jobRig) float64 {
			// The job parks on an empty queue. The first Put wakes it,
			// but the process takes that message back before the job
			// runs, so the job finds the queue empty and parks again.
			n := newFPGANode(r.e, 0)
			fq := sim.NewMailbox(r.e, "mm.fq0")
			work := n.compute(0.5)
			work.Recv = fq
			r.detach(r.cursor("mm.fpga0", "stripe", repeatStep(3, work)))
			r.e.Go("mm.cpu0", func(p *sim.Proc) {
				p.Wait(0.25)
				fq.Put(-1)
				fq.Get(p)
				for k := 0; k < 3; k++ {
					n.cpu.UseCat(p, sim.CatDMA, 64, 0.75)
					fq.Put(k)
				}
			})
			return 0
		}},
		{"recv-waiting", func(r jobRig) float64 {
			// Every message is queued before the job starts.
			n := newFPGANode(r.e, 0)
			fq := sim.NewMailbox(r.e, "spmv.fq.0")
			for k := 0; k < 3; k++ {
				fq.Put(k)
			}
			work := n.compute(0.5)
			work.Recv = fq
			r.e.Go("spmv.cpu", func(p *sim.Proc) {
				done := r.cursor("spmv.mv.0", "stream", repeatStep(3, work))
				n.cpu.UseCat(p, sim.CatCompute, 0, 0.25)
				r.await(p, done)
			})
			return 0
		}},
		{"await-fired", func(r jobRig) float64 {
			// The awaited job has finished when the gate is reached.
			n := newFPGANode(r.e, 0)
			done := r.launch("opmm.fpga1", "stripe", n.compute(1))
			r.detach(r.cursor("opmm.cpu1", "stripe", stepList(
				sim.Step{Charge: sim.Charge{Cat: sim.CatCompute, Dt: 2}, Res: n.cpu},
				sim.Step{Await: done})))
			return 0
		}},
		{"await-unfired", func(r jobRig) float64 {
			// The gate parks on the awaited job's done signal; its Fire
			// wakes the job, which then ends.
			n := newFPGANode(r.e, 0)
			done := r.launch("opmm.fpga1", "stripe", n.fill(0.25), n.compute(1))
			r.detach(r.cursor("opmm.cpu1", "stripe", stepList(
				sim.Step{Charge: sim.Charge{Cat: sim.CatCompute, Dt: 0.5}, Res: n.cpu},
				sim.Step{Await: done})))
			return 0
		}},
		{"stripe-pipeline", func(r jobRig) float64 {
			// mm's shape: a 2·N-step processor cursor whose DMA steps
			// feed, through their After hook, an array job gated on the
			// queue, then a gate on the array job's done signal. Node 0
			// is FPGA-bound (a stripe is always waiting, and the array
			// is dilated after its gate), node 1 CPU-bound (the array
			// parks on an empty queue every stripe).
			for i, tf := range []float64{1, 0.25} {
				n := newFPGANode(r.e, i)
				fq := sim.NewMailbox(r.e, sim.Name("mm.fq", i))
				array := n.compute(tf)
				array.Recv = fq
				if i == 0 {
					array.Dilate = func(start, dt float64) float64 { return dt + 0.125*start }
				}
				done := r.cursor(sim.Name("mm.fpga", i), "stripe", repeatStep(4, array))
				dma := sim.Step{Charge: sim.Charge{Cat: sim.CatDMA, Bytes: 256, Dt: 0.125}, Res: n.cpu,
					After: func() { fq.Put(nil) }}
				sw := sim.Step{Charge: sim.Charge{Cat: sim.CatCompute, Dt: 0.375}, Res: n.cpu}
				r.detach(r.cursor(sim.Name("mm.cpu", i), "stripe", func(k int) (sim.Step, bool) {
					switch {
					case k < 8 && k%2 == 0:
						return dma, true
					case k < 8:
						return sw, true
					case k == 8:
						return sim.Step{Await: done}, true
					}
					return sim.Step{}, false
				}))
			}
			return 0
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			job, ref := runJobScenario(sc.build)
			assertSameRun(t, job, ref)
		})
	}
}

// A job queued forever on a held array is reported stuck on the array,
// and one parked forever on an empty queue stuck on the queue, in the
// same words as their process forms, and so is the awaiter.
func TestJobDeadlockReport(t *testing.T) {
	job, ref := runJobScenario(func(r jobRig) float64 {
		n := newFPGANode(r.e, 0)
		never := sim.NewMailbox(r.e, "never")
		r.e.Go("holder", func(p *sim.Proc) {
			n.array.Acquire(p)
			never.Get(p)
		})
		r.e.Go("node0.cpu", func(p *sim.Proc) {
			p.Wait(1)
			r.await(p, r.launch("lu.fpga.0.1.2.1", "opmm", n.fill(0.5), n.compute(1)))
		})
		work := n.compute(1)
		work.Recv = sim.NewMailbox(r.e, "mm.fq0")
		r.detach(r.cursor("mm.fpga0", "stripe", repeatStep(2, work)))
		return 0
	})
	assertSameRun(t, job, ref)
	var d *sim.Deadlock
	if !errors.As(job.err, &d) {
		t.Fatalf("err = %v, want *Deadlock", job.err)
	}
	want := map[string]string{
		"holder":          "recv never",
		"node0.cpu":       "signal lu.fpga.0.1.2.1.done",
		"lu.fpga.0.1.2.1": "acquire fpga.0",
		"mm.fpga0":        "recv mm.fq0",
	}
	for name, reason := range want {
		if d.Stuck[name] != reason {
			t.Errorf("Stuck[%q] = %q, want %q (report %v)", name, d.Stuck[name], reason, d.Stuck)
		}
	}
	if len(d.Stuck) != len(want) || !strings.Contains(d.Error(), "lu.fpga.0.1.2.1: acquire fpga.0") {
		t.Errorf("report %q", d.Error())
	}
}

// On an untraced engine a steady-state launch and await allocates
// nothing: records and done signals are recycled, and the caller's
// name is the only string a job needs. That holds for a fixed job and
// for mm's stripe pipeline — a cursor job gated on a queue, fed by a
// detached cursor job's After hook, whose last step awaits the first
// job's done signal — per launch and per step.
func TestJobLaunchAllocs(t *testing.T) {
	e := sim.New()
	n := newFPGANode(e, 0)
	steps := []sim.Step{n.fill(0.25), n.compute(1)}
	fq := sim.NewMailbox(e, "mm.fq0")
	array := n.compute(1)
	array.Recv = fq
	fpga := repeatStep(16, array)
	dma := sim.Step{Charge: sim.Charge{Cat: sim.CatDMA, Dt: 0.25}, Res: n.cpu, After: func() { fq.Put(nil) }}
	var done *sim.Signal
	cpu := func(i int) (sim.Step, bool) {
		if i == 16 {
			return sim.Step{Await: done}, true
		}
		return dma, i < 16
	}
	var launch, cursor float64
	e.Go("node0.cpu", func(p *sim.Proc) {
		launch = testing.AllocsPerRun(100, func() {
			e.Await(p, e.Launch("fw.fpga", "op", steps))
		})
		cursor = testing.AllocsPerRun(100, func() {
			done = e.LaunchCursor("mm.fpga0", "stripe", fpga)
			e.Detach(e.LaunchCursor("mm.cpu0", "stripe", cpu))
			p.Wait(20)
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if launch != 0 {
		t.Errorf("Launch+Await allocates %v per job, want 0", launch)
	}
	if cursor != 0 {
		t.Errorf("a 16-stripe cursor pipeline allocates %v per run, want 0", cursor)
	}
}

// repeatStep is the cursor of n copies of s.
func repeatStep(n int, s sim.Step) func(i int) (sim.Step, bool) {
	return func(i int) (sim.Step, bool) { return s, i < n }
}

// stepList is the cursor over steps.
func stepList(steps ...sim.Step) func(i int) (sim.Step, bool) {
	return func(i int) (sim.Step, bool) {
		if i < len(steps) {
			return steps[i], true
		}
		return sim.Step{}, false
	}
}
