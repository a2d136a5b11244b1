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
// boundary, its first start and its completion run in scheduler
// context, and each step names its own resource.
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
}

// Do runs one step in process context: exactly the charge a job
// step makes, for process bodies that cannot be jobs because they
// block between charges.
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
// context: a job's start, a queued acquire's grant, or the end of a
// hold. Every emitted event, span, and piece of resource bookkeeping
// mirrors what a process running the same steps does at the same
// virtual time. It returns the owning process at a fused sequence's
// final boundary, for dispatch to resume, and nil otherwise.
func (e *Engine) chainStep(j *job) *Proc {
	a := j.who
	switch {
	case !j.started:
		// A job's start event: its process would resume here and begin
		// its first step.
		j.started = true
		e.emitEvent(e.now, a.name, "resume")
		e.beginStep(j)
		return nil
	case j.acquiring:
		// The unit grant Release scheduled while the step queued:
		// replicate Acquire's post-park bookkeeping, then start the
		// hold.
		j.acquiring = false
		r := j.steps[j.idx].Res
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
	last := j.idx == j.n-1
	if last && j.owner != nil {
		return j.owner // startChain ends the final charge
	}
	e.emitEvent(e.now, a.name, "resume")
	e.endStep(j)
	if last {
		e.finishJob(j)
		return nil
	}
	j.idx++
	e.beginStep(j)
	return nil
}

// beginStep starts step idx: dilate its charge, acquire its resource —
// queueing exactly as Acquire would, recording the park reason so
// deadlock reports and traces read identically — then hold.
func (e *Engine) beginStep(j *job) {
	s := &j.steps[j.idx]
	if s.Dilate != nil {
		s.Dt = s.Dilate(e.now, s.Dt)
	}
	if r := s.Res; r != nil {
		r.acquires++
		if r.inUse >= r.capacity {
			r.enqueue(waiter{j: j})
			j.since = e.now
			j.acquiring = true
			a := j.who
			a.parkKind, a.parkWhy, a.parkDur = parkOn, &r.why, 0
			if e.tracing() {
				e.emitEvent(e.now, a.name, r.why.act())
			}
			return
		}
		r.accumulate()
		r.inUse++
	}
	e.holdStep(j)
}

// holdStep starts the hold of step idx: schedule the boundary, record
// the park reason, and emit the block event the process's Wait would
// have emitted.
func (e *Engine) holdStep(j *job) {
	dt := j.steps[j.idx].Dt
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
	s := &j.steps[j.idx]
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
