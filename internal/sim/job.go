package sim

import (
	"fmt"
	"sync"
)

// Jobs: charge sequences with no process behind them.
//
// A hardware unit that runs a fixed program once started — an FPGA
// datapath the processor starts through a register and later polls —
// needs no coroutine: its body is a list of steps, each a charge on a
// resource or a resource-free span, with nothing to decide between
// them. Launch runs such a job entirely in scheduler context on the
// machinery of chain.go and fires its done signal at the final
// boundary. A job whose steps are many or follow a pattern takes them
// from a cursor (LaunchCursor), asked for each step as the previous one
// ends. A step may wait before it starts, on a mailbox message (Recv)
// or a signal (Await) — a stripe queue, a status register — and may act
// when it ends (After), so a stripe pipeline's consumer and producer
// are jobs too.
//
// The job emits the raw events (resume, block: …, under its name) and
// typed spans (Proc = name, Phase = phase) a process running the same
// steps would, and draws sequence numbers at the same moments: one
// start event at launch time, one per boundary, and one per wake-up
// from a gate, scheduled by Put or Fire where they scheduled the
// process — so every (t, seq) in the queue, and therefore the whole
// run, is unchanged. Job records and their done signals are recycled
// through an engine-owned free list; a steady-state Launch allocates
// nothing. A finished engine hands its free list to a process-wide
// pool, which seeds the next engine's, as the event queue's array
// does.

// job is the record behind a job or a process's fused sequence.
type job struct {
	actor // a job's name, phase and park state

	// who is where names, phases and park reasons are read and
	// written: the job's own actor, or its owner's.
	who *actor
	// owner is the process a fused sequence resumes at its final
	// boundary; nil for a job.
	owner *Proc
	// fn, when non-nil, makes the record an At callback instead.
	fn func()

	// steps holds a fixed job's steps, or a cursor job's current step
	// in steps[0].
	steps  [chainCap]Step
	cursor func(i int) (Step, bool)
	n, idx int

	started   bool    // the first step has begun
	acquiring bool    // step idx is queued on its resource
	gated     bool    // step idx is parked on its Recv or Await gate
	detached  bool    // nobody awaits done: recycle at the final boundary
	start     float64 // the current hold's start
	since     float64 // when the queued acquire joined the FIFO

	done Signal // a job's status register
	ord  int    // processes spawned before the launch (deadlock order)
	// prev and next link the engine's live-job list; next also links
	// the free list.
	prev, next *job
}

// jobPool holds the free lists of finished engines, each a chain of
// records linked by next.
var jobPool sync.Pool

// newJob takes a record from the free list — refilled from jobPool
// when empty — or allocates one.
func (e *Engine) newJob() *job {
	j := e.spare
	if j == nil {
		j, _ = jobPool.Get().(*job)
	}
	if j == nil {
		j = &job{}
		j.done.eng = e
		j.done.job = j
		return j
	}
	e.spare = j.next
	j.next = nil
	j.done.eng = e
	j.idx = 0
	j.started, j.acquiring, j.gated, j.detached = false, false, false, false
	j.owner, j.cursor = nil, nil
	return j
}

// poolSpare hands the engine's free list to jobPool, first dropping
// every reference a record holds into this engine's object graph.
func (e *Engine) poolSpare() {
	if e.spare == nil {
		return
	}
	for j := e.spare; j != nil; j = j.next {
		j.actor = actor{}
		j.who, j.owner, j.cursor = nil, nil, nil
		j.steps = [chainCap]Step{}
		j.done.eng, j.done.why = nil, parkReason{}
	}
	jobPool.Put(e.spare)
	e.spare = nil
}

// recycle returns a finished record to the free list.
func (e *Engine) recycle(j *job) {
	j.next = e.spare
	e.spare = j
}

// Launch starts a job named name at the current time: its steps run
// in order, each with the given phase annotation, as one process
// running them with Proc.Do would. It returns the job's done signal,
// which fires at the final boundary. Pass the signal to Await, to a
// step's Await gate or to Detach exactly once; it must not be used
// afterwards. A job has 1 to 4 steps.
func (e *Engine) Launch(name, phase string, steps []Step) *Signal {
	if len(steps) == 0 || len(steps) > chainCap {
		panic(fmt.Sprintf("sim: job %q has %d steps, want 1 to %d", name, len(steps), chainCap))
	}
	j := e.launch(name, phase)
	j.n = copy(j.steps[:], steps)
	return &j.done
}

// LaunchCursor is Launch for a job of any length whose steps come from
// next: step i is next(i), asked for in scheduler context when step
// i-1 ends (after its After hook), and the job ends at the first i for
// which next reports false. The job holds one step at a time, so a
// cursor of any length allocates nothing per step.
func (e *Engine) LaunchCursor(name, phase string, next func(i int) (Step, bool)) *Signal {
	j := e.launch(name, phase)
	j.cursor = next
	return &j.done
}

// launch takes a record for a job named name, links it into the live
// list and schedules its start event.
func (e *Engine) launch(name, phase string) *job {
	j := e.newJob()
	j.name, j.phase = name, phase
	j.who = &j.actor
	j.done.fired = false
	j.done.why = parkReason{what: "signal ", name: name, suffix: ".done"}
	j.ord = len(e.procs)
	j.prev = e.liveTail
	if e.liveTail != nil {
		e.liveTail.next = j
	} else {
		e.liveHead = j
	}
	e.liveTail = j
	e.scheduleJob(e.now, j)
	return j
}

// Detach declares that nobody will await the job's done signal: the
// job's record goes back to the engine at its final boundary (or now,
// if it has finished).
func (e *Engine) Detach(done *Signal) {
	if done.fired {
		e.recycle(done.job)
		return
	}
	done.job.detached = true
}

// finishJob unlinks a job that ran its last step and fires its done
// signal.
func (e *Engine) finishJob(j *job) {
	if j.prev != nil {
		j.prev.next = j.next
	} else {
		e.liveHead = j.next
	}
	if j.next != nil {
		j.next.prev = j.prev
	} else {
		e.liveTail = j.prev
	}
	j.prev, j.next = nil, nil
	j.done.Fire()
	if j.detached {
		e.recycle(j)
	}
}

// Await blocks p until done fires. When done is a job's signal, the
// job's record goes back to the engine for reuse by a later Launch.
func (e *Engine) Await(p *Proc, done *Signal) {
	done.Wait(p)
	e.release(done)
}

// release hands the record behind a job's awaited done signal back to
// the free list; other signals have none.
func (e *Engine) release(done *Signal) {
	if done.job != nil {
		e.recycle(done.job)
	}
}
