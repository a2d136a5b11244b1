package core

import (
	"fmt"

	"codesign/internal/machine"
	"codesign/internal/sim"
	"codesign/internal/trace"
)

// faultPolicy is how an app's run stage treats a fault injector. Every
// policy rejects Functional together with Faults, unless alwaysChecked.
type faultPolicy struct {
	// kills, when set, is why the app cannot survive a node kill; the
	// run stage rejects kill specs with it.
	kills string
	// alwaysChecked marks an app that verifies every run whatever
	// Spec.Functional says, with arithmetic that does not depend on
	// timing, so its check stays on under faults (spmv).
	alwaysChecked bool
}

// harness is one run between the run stage's two steps: the plan it
// simulates and the machine built from it, with the design installed.
type harness struct {
	Plan
	sys *machine.System
	tel telemetry
	// name is the app's table name, the Result's App.
	name string
}

// start is the run stage's setup, in order: plan s, build the machine,
// attach s.Trace and the telemetry observer, install the design
// family's k-PE array, and apply the app's fault policy to s.Faults.
func (pr *planner) start(s Spec) (*harness, error) {
	pl, err := pr.plan(s, nil)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sys, err := machine.New(pl.Spec.Machine)
	if err != nil {
		return nil, err
	}
	sys.Eng.Trace = s.Trace
	h := &harness{Plan: pl, sys: sys, name: pr.name, tel: setupTelemetry(sys.Eng, s.Telemetry, s.Observer)}
	if err := sys.InstallDesign(pr.family.mk(pl.Split.K)); err != nil {
		return nil, err
	}
	if s.Faults != nil {
		switch {
		case s.Functional && !pr.faults.alwaysChecked:
			return nil, fmt.Errorf("core: functional checking cannot run under fault injection")
		case pr.faults.kills != "" && s.Faults.HasDeaths():
			return nil, fmt.Errorf("core: %s", pr.faults.kills)
		}
		if err := sys.InstallFaults(s.Faults); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// finish is the run stage's teardown: it runs the engine and fills the
// common Result — the app's name, mode, n and the given b, simulated
// time, flops and throughput, fabric traffic, handshakes, busy time and
// the telemetry digest.
func (h *harness) finish(b int, flops float64) (Result, error) {
	end, err := h.sys.Run()
	if err != nil {
		return Result{}, fmt.Errorf("core: %s simulation: %w", h.name, err)
	}
	r := Result{App: h.name, Mode: h.Spec.Mode, N: h.Spec.N, B: b,
		Seconds: end, Flops: flops, GFLOPS: flops / end / 1e9,
		NetworkBytes:  h.sys.Fab.Bytes(),
		Coordinations: collectCoordinations(h.sys)}
	r.CPUBusy, r.FPGABusy = collectBusy(h.sys)
	if h.tel.rec != nil {
		r.Telemetry = h.tel.rec.SummarizeSince(h.tel.from, end)
	}
	return r, nil
}

func collectBusy(sys *machine.System) (cpu, fpga []float64) {
	for _, n := range sys.Nodes {
		cpu = append(cpu, n.CPUBusy.BusySeconds())
		if n.Accel != nil {
			fpga = append(fpga, n.Accel.Array.BusySeconds())
		} else {
			fpga = append(fpga, 0)
		}
	}
	return cpu, fpga
}

func collectCoordinations(sys *machine.System) int64 {
	var c int64
	for _, n := range sys.Nodes {
		if n.Accel != nil {
			c += n.Accel.Coordinations()
		}
	}
	return c
}

// telemetry is where a run's Summary comes from: a span recorder and
// the mark at which the run began recording into it. The zero value
// means telemetry is off.
type telemetry struct {
	rec  *trace.Recorder
	from trace.Mark
}

// setupTelemetry registers any caller-provided observer on the engine
// and, when summarize is set, picks the recorder whose digest the run
// attaches to its Result.Telemetry. A caller *trace.Recorder already
// sees every span, so the run summarizes it from the current mark on
// (earlier runs' spans stay out of the digest); any other observer
// gets an internal recorder beside it.
func setupTelemetry(eng *sim.Engine, summarize bool, obs sim.Observer) telemetry {
	if obs != nil {
		eng.Observe(obs)
	}
	if !summarize {
		return telemetry{}
	}
	rec, ok := obs.(*trace.Recorder)
	if !ok {
		rec = trace.NewRecorder()
		eng.Observe(rec)
	}
	return telemetry{rec: rec, from: rec.Mark()}
}
