package sim

// Charge sequences the engine advances in scheduler context.
//
// A cross-process handoff costs two coroutine switches (out to the
// driver, into the next process) and the wake-up's event pop, several
// times a self-resume (BenchmarkEventLoopHandoff vs
// BenchmarkEventLoopSelf). A simulated process that charges several
// consecutive intervals to one resource — unpack, DMA, then compute on
// a node's CPU, say — parks once per interval, and every park is a
// potential handoff. UseSeq and WaitSeq fuse such a sequence into a
// single park: the process yields once, and the engine advances the
// intermediate charge boundaries itself, in scheduler context,
// emitting exactly the events, spans, and resource accounting the
// equivalent loop of UseCat/WaitSpanOn calls would have produced.
// Simulated time, span streams, and utilization integrals are
// byte-identical; only the switch count drops (measured by
// Counters.FusedSteps).
//
// A job (job.go) is the same machinery with no process at all: every
// boundary, its first start, its gate waits and its completion run in
// scheduler context, and each step names its own resource.
//
// Determinism argument: at an unfused boundary the process resumes on
// its own event pop and immediately schedules its next wait, so the
// sequence number it draws equals the one a scheduler-context
// reschedule at the same pop would draw. The fused path performs that
// reschedule inline at the pop, therefore every queued event keeps the
// identical (t, seq) it had before — the total order of the run cannot
// change.

// Charge is one interval of a fused sequence: dt seconds of activity
// attributed to a span category, carrying bytes of payload for
// data-movement categories (0 for compute). Negative durations are
// treated as 0, matching WaitSpanOn.
type Charge struct {
	// Cat classifies the interval (compute, dma, network, ...).
	Cat Category
	// Bytes is the payload a data-movement charge carried (0 otherwise).
	Bytes int64
	// Dt is the interval's duration in virtual seconds.
	Dt float64
}

// Step is one charge of a job or fused sequence, with what it occupies.
// With Res set, the step acquires Res (queueing FIFO under contention),
// holds it for the charge and releases it, and its span carries Res's
// device and name; with Res nil it is a resource-free span tagged Dev
// and Name.
//
// A job's step may also wait before it starts and act when it ends:
// Recv and Await are gates, After a hook. A step with a gate but
// neither Res nor Name is gate-only: it charges nothing and emits no
// span, and ends as soon as its gate passes. Proc.Do ignores gates and
// hooks; a process waits and acts between its charges itself.
type Step struct {
	Charge
	// Res is the resource held for the charge (nil: none).
	Res *Resource
	// Dev tags the span of a resource-free step with its device kind.
	Dev Device
	// Name names what a resource-free step's span occupied.
	Name string
	// Dilate, when non-nil, maps the nominal Dt to the effective one.
	// It is evaluated when the step starts, with the start time, before
	// Res is acquired — where a process computing the duration itself
	// would evaluate it (a fault hook, say).
	Dilate func(start, dt float64) float64
	// Recv, when non-nil, makes the step take one message from the
	// mailbox before it starts, parking the job while the mailbox is
	// empty and re-checking on every wake, as Mailbox.Get does.
	Recv *Mailbox
	// Await, when non-nil, makes the step wait for the signal before it
	// starts, as Signal.Wait does (after any Recv). A job's done signal
	// awaited here goes back to the engine, as with Engine.Await.
	Await *Signal
	// After, when non-nil, runs in scheduler context when the step
	// ends, after its span and release: where a process would run its
	// next statement (a Mailbox.Put or Signal.Fire, say).
	After func()
}

// Do runs one step's charge in process context: exactly the charge a
// job step makes, without its gates and hook. It is the process form
// of a step, which the job tests compare jobs against.
func (p *Proc) Do(s Step) {
	if s.Dilate != nil {
		s.Dt = s.Dilate(p.eng.now, s.Dt)
	}
	if s.Res != nil {
		s.Res.UseCat(p, s.Cat, s.Bytes, s.Dt)
		return
	}
	p.WaitSpanOn(s.Cat, s.Dev, s.Name, s.Bytes, s.Dt)
}

// chainCap bounds a job's steps and a fused sequence's charges.
// Longer fused sequences fall back to the unfused per-charge loop —
// correct, just with more handoffs. The buffer lives inline in the
// recycled job record, so fusing allocates nothing.
const chainCap = 4

// UseSeq behaves exactly like calling r.UseCat(p, c.Cat, c.Bytes, c.Dt)
// for each charge in order — including per-charge acquire/release
// bracketing, FIFO queueing under contention, and one typed span per
// charge — but parks the calling process only once for the whole
// sequence. The intermediate boundaries run in scheduler context, so a
// sequence of n charges costs one handoff instead of n.
func (r *Resource) UseSeq(p *Proc, charges []Charge) {
	switch {
	case len(charges) == 0:
		return
	case len(charges) == 1:
		r.UseCat(p, charges[0].Cat, charges[0].Bytes, charges[0].Dt)
		return
	case len(charges) > chainCap:
		for _, c := range charges {
			r.UseCat(p, c.Cat, c.Bytes, c.Dt)
		}
		return
	}
	r.Acquire(p)
	p.startChain(r, r.device, r.name, charges)
}

// WaitSeq is the resource-free analogue of UseSeq: it behaves exactly
// like calling p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, c.Dt) for
// each charge in order, but parks only once. Use it for consecutive
// charges that do not contend on a Resource.
func (p *Proc) WaitSeq(dev Device, resource string, charges []Charge) {
	switch {
	case len(charges) == 0:
		return
	case len(charges) == 1:
		p.WaitSpanOn(charges[0].Cat, dev, resource, charges[0].Bytes, charges[0].Dt)
		return
	case len(charges) > chainCap:
		for _, c := range charges {
			p.WaitSpanOn(c.Cat, dev, resource, c.Bytes, c.Dt)
		}
		return
	}
	p.startChain(nil, dev, resource, charges)
}

// startChain begins the fused sequence's first hold on a job record
// owned by p and parks until the engine has driven every boundary; on
// return it ends the final charge (span, release of r). A non-nil r
// is already held by the caller.
func (p *Proc) startChain(r *Resource, dev Device, resource string, charges []Charge) {
	e := p.eng
	j := e.newJob()
	j.owner, j.who = p, &p.actor
	for i, c := range charges {
		j.steps[i] = Step{Charge: c, Res: r, Dev: dev, Name: resource}
	}
	j.n = len(charges)
	j.started = true
	dt := charges[0].Dt
	if dt < 0 {
		dt = 0
	}
	j.start = e.now
	e.scheduleJob(e.now+dt, j)
	p.park(parkWait, nil, dt)
	// The final boundary resumed us; the engine already ended every
	// earlier charge.
	e.endStep(j)
	e.recycle(j)
}

// chainStep advances job record j at one of its events, in scheduler
// context: a job's start, a gate's wake-up, a queued acquire's grant,
// or the end of a hold. Every emitted event, span, and piece of
// resource bookkeeping mirrors what a process running the same steps
// does at the same virtual time. It returns the owning process at a
// fused sequence's final boundary, for dispatch to resume, and nil
// otherwise.
func (e *Engine) chainStep(j *job) *Proc {
	a := j.who
	switch {
	case !j.started:
		// A job's start event: its process would resume here and begin
		// its first step.
		j.started = true
		e.emitEvent(e.now, a.name, "resume")
		if e.load(j) {
			e.beginStep(j, false)
		}
		return nil
	case j.gated:
		// Put or Fire woke the job on the gate it parked on.
		j.gated = false
		e.emitEvent(e.now, a.name, "resume")
		e.beginStep(j, true)
		return nil
	case j.acquiring:
		// The unit grant Release scheduled while the step queued:
		// replicate Acquire's post-park bookkeeping, then start the
		// hold.
		j.acquiring = false
		r := j.cur().Res
		e.emitEvent(e.now, a.name, "resume")
		waited := e.now - j.since
		r.waitInt += waited
		r.waits++
		if waited > 0 && e.observing() {
			e.EmitSpan(SpanEvent{
				Category: CatSync, Device: r.device, Proc: a.name, Resource: r.name,
				Phase: a.phase, Start: j.since, End: e.now,
			})
		}
		e.holdStep(j)
		return nil
	}
	// A hold boundary: step idx just finished.
	if j.owner != nil && j.idx == j.n-1 {
		return j.owner // startChain ends the final charge
	}
	e.emitEvent(e.now, a.name, "resume")
	e.endStep(j)
	if e.advance(j) {
		e.beginStep(j, false)
	}
	return nil
}

// cur returns the step in progress.
func (j *job) cur() *Step {
	if j.cursor != nil {
		return &j.steps[0]
	}
	return &j.steps[j.idx]
}

// load makes step idx current, reporting false when there is none,
// and finishes the job then.
func (e *Engine) load(j *job) bool {
	if j.cursor != nil {
		s, ok := j.cursor(j.idx)
		j.steps[0] = s
		if ok {
			return true
		}
	} else if j.idx < j.n {
		return true
	}
	e.finishJob(j)
	return false
}

// advance ends step idx in scheduler context — its After hook — and
// makes the next step current; it reports false once the job has
// finished.
func (e *Engine) advance(j *job) bool {
	if after := j.cur().After; after != nil {
		after()
	}
	j.idx++
	return e.load(j)
}

// beginStep starts step idx: pass its gates, dilate its charge, acquire
// its resource — queueing exactly as Acquire would, recording the park
// reason so deadlock reports and traces read identically — then hold.
// A gate-only step ends once its gate passes, and the next one begins.
// woken is set when a gate's wake-up resumed the job.
func (e *Engine) beginStep(j *job, woken bool) {
	s := j.cur()
	for s.Res == nil && s.Name == "" && (s.Recv != nil || s.Await != nil) {
		if !e.passGates(j, s, woken) || !e.advance(j) {
			return
		}
		s, woken = j.cur(), false
	}
	if !e.passGates(j, s, woken) {
		return
	}
	if s.Dilate != nil {
		s.Dt = s.Dilate(e.now, s.Dt)
	}
	if r := s.Res; r != nil {
		r.acquires++
		if r.inUse >= r.capacity {
			r.enqueue(waiter{j: j})
			j.since = e.now
			j.acquiring = true
			e.parkJob(j, &r.why)
			return
		}
		r.accumulate()
		r.inUse++
	}
	e.holdStep(j)
}

// passGates takes the step's Recv message and waits on its Await
// signal, clearing each gate as it passes; it parks the job and
// reports false at the first that is closed. A Recv gate re-checks its
// mailbox on every wake, as Mailbox.Get loops; an Await gate passes on
// the wake Fire scheduled, as Signal.Wait returns.
func (e *Engine) passGates(j *job, s *Step, woken bool) bool {
	if m := s.Recv; m != nil {
		if m.Len() == 0 {
			m.wait(waiter{j: j})
			j.gated = true
			e.parkJob(j, &m.why)
			return false
		}
		m.popMsg()
		s.Recv, woken = nil, false
	}
	if sig := s.Await; sig != nil {
		if !woken && !sig.fired {
			sig.waiters = append(sig.waiters, waiter{j: j})
			j.gated = true
			e.parkJob(j, &sig.why)
			return false
		}
		s.Await = nil
		e.release(sig)
	}
	return true
}

// parkJob records that the job is parked on a primitive (queued on a
// resource, or at a gate) and emits the block event the process form's
// park would have.
func (e *Engine) parkJob(j *job, why *parkReason) {
	a := j.who
	a.parkKind, a.parkWhy, a.parkDur = parkOn, why, 0
	if e.tracing() {
		e.emitEvent(e.now, a.name, why.act())
	}
}

// holdStep starts the hold of step idx: schedule the boundary, record
// the park reason, and emit the block event the process's Wait would
// have emitted.
func (e *Engine) holdStep(j *job) {
	dt := j.cur().Dt
	if dt < 0 {
		dt = 0
	}
	j.start = e.now
	e.scheduleJob(e.now+dt, j)
	a := j.who
	a.parkKind, a.parkWhy, a.parkDur = parkWait, nil, dt
	if e.tracing() {
		e.emitEvent(e.now, a.name, e.waitReason(parkWait, dt).action)
	}
	if e.ctr != nil {
		e.ctr.FusedSteps.Add(1)
	}
}

// endStep ends step idx at the current time: its typed span, then the
// release of its resource.
func (e *Engine) endStep(j *job) {
	s := j.cur()
	if e.observing() {
		dev, name := s.Dev, s.Name
		if s.Res != nil {
			dev, name = s.Res.device, s.Res.name
		}
		e.EmitSpan(SpanEvent{
			Category: s.Cat, Device: dev, Proc: j.who.name, Resource: name,
			Phase: j.who.phase, Bytes: s.Bytes, Start: j.start, End: e.now,
		})
	}
	if s.Res != nil {
		s.Res.Release()
	}
}
