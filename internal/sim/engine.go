//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"math"
	"sort"
	"sync"
)

// Engine owns the virtual clock and the event queue.
//
// Scheduling is cooperative and strictly sequential: every process body
// runs on a runtime coroutine (iter.Pull), so it can block in ordinary
// Go code, but only one coroutine runs at a time. Run is the driver
// loop: it pops events, runs scheduler callbacks inline, and switches
// into the next process's coroutine. A parking process pops events
// itself; if it is the next runnable process it simply returns (no
// switch at all), otherwise it records its successor and yields to the
// driver. Coroutines come from a process-wide pool of workers and go
// back to it when their process ends. See DESIGN.md "Engine internals".
type Engine struct {
	now      float64
	seq      int64
	queue    eventQueue
	procs    []*Proc
	nblocked int
	failure  error
	running  bool
	until    float64
	horizon  bool

	// next is the process a parker found runnable (nil: nothing left
	// to run), handed to the driver along with control.
	next *Proc

	// liveHead and liveTail bound the list of launched, unfinished
	// jobs in launch order (deadlock reports and teardown walk it);
	// spare heads the free list of recycled job records (job.go).
	liveHead, liveTail *job
	spare              *job

	// Trace, if non-nil, receives one call per interesting engine
	// action (process resume, wait, block). Useful for debugging and
	// for the timeline exporter. It remains the legacy adapter onto
	// the raw event stream; structured consumers register an Observer
	// via Observe instead. Both see identical events in the same
	// order.
	Trace func(t float64, proc, action string)

	observers []Observer

	// ctr, when non-nil, receives engine-loop event counts (see
	// Counters). Nil by default: every counting site is gated on a nil
	// check so an unobserved engine pays nothing.
	ctr *Counters

	// waitReasons caches the formatted "wait %.3gs" / "wait until
	// %.3g" block-reason strings by duration bits, so a traced run
	// pays one fmt.Sprintf per distinct duration instead of one per
	// event. Untraced runs never touch it. waitFront is a
	// direct-mapped cache in front of the map: simulated charges
	// repeat the same handful of durations (stripe times, DMA rates),
	// so most lookups hit here without hashing a map key.
	waitReasons map[waitKey]*parkReason
	waitFront   [waitFrontSize]waitFrontEntry
}

// waitFrontSize is the direct-mapped wait-reason cache size (a power
// of two so the hash reduces with a shift).
const waitFrontSize = 32

// waitFrontEntry is one slot of the direct-mapped wait-reason cache.
type waitFrontEntry struct {
	key waitKey
	why *parkReason
}

// New returns an empty engine with the clock at 0. The engine
// inherits the process-wide counter sink, if InstallCounters set one.
func New() *Engine {
	return &Engine{ctr: defaultCounters.Load()}
}

// Now returns the current virtual time in seconds.
func (e *Engine) Now() float64 { return e.now }

// event is one queue entry: a process resume (p != nil), or a job
// record's turn (j != nil) — a job or fused-sequence boundary, or a
// scheduler-context callback carried on a record (j.fn != nil). Events
// order by (t, seq); seq is unique per engine, so the order is a
// strict total order and any heap yields the identical pop sequence.
// Four words keep the event in registers through push and pop.
type event struct {
	t   float64
	seq int64
	p   *Proc
	j   *job
}

// eventQueue is a binary min-heap of events ordered by (t, seq),
// implemented directly on a slice: pushes and pops stay free of the
// interface boxing container/heap would charge per operation, and
// popped slots are zeroed so the backing array cannot retain process
// pointers or job records (a real leak on long runs otherwise).
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

func (q *eventQueue) less(i, j int) bool {
	if q.ev[i].t != q.ev[j].t {
		return q.ev[i].t < q.ev[j].t
	}
	return q.ev[i].seq < q.ev[j].seq
}

func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event, clearing the vacated slot.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // do not retain p / j in the backing array
	q.ev = q.ev[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		if l >= n {
			break
		}
		child := l
		if r < n && q.less(r, l) {
			child = r
		}
		if !q.less(child, i) {
			break
		}
		q.ev[i], q.ev[child] = q.ev[child], q.ev[i]
		i = child
	}
	return top
}

// reset empties the queue, zeroing every slot so the backing array
// retains no references, and keeps the capacity for reuse.
func (q *eventQueue) reset() {
	for i := range q.ev {
		q.ev[i] = event{}
	}
	q.ev = q.ev[:0]
}

// queuePool recycles event-queue backing arrays across engines: a
// design-space sweep runs hundreds of short simulations, and the grown
// queue of a finished run seeds the next engine's.
var queuePool = sync.Pool{New: func() any { return make([]event, 0, 64) }}

func (e *Engine) schedule(ev event) {
	if ev.t < e.now {
		ev.t = e.now
	}
	if e.queue.ev == nil {
		e.queue.ev = queuePool.Get().([]event)
	}
	e.seq++
	ev.seq = e.seq
	e.queue.push(ev)
}

// scheduleProc enqueues a resume of p at time t without allocating.
func (e *Engine) scheduleProc(t float64, p *Proc) { e.schedule(event{t: t, p: p}) }

// scheduleJob enqueues the next boundary of job record j at time t.
func (e *Engine) scheduleJob(t float64, j *job) { e.schedule(event{t: t, j: j}) }

// At schedules fn to run at absolute virtual time t (or now, if t is in
// the past). fn runs in scheduler context and must not block.
func (e *Engine) At(t float64, fn func()) {
	j := e.newJob()
	j.fn = fn
	e.scheduleJob(t, j)
}

// abortError unwinds a process body when the engine shuts down.
type abortError struct{}

// Park-reason kinds; see Proc.park.
const (
	parkOn    = iota // parked on a primitive carrying its own reason
	parkWait         // Wait(dt): "wait %.3gs"
	parkUntil        // WaitUntil(t): "wait until %.3g"
)

// parkReason is a cached pair of block-reason strings: the bare reason
// (deadlock reports) and its "block: "-prefixed trace action. The
// primitives (Resource, Mailbox, Signal, Barrier) embed one holding the
// parts of the reason — "acquire " + "fpga0", say, or "signal " +
// "lu.fpga.0.1.2.1" + ".done" — and format it on first use, so a
// primitive that never blocks a traced run or a deadlock report never
// concatenates. Wait reasons are interned per duration in the engine's
// cache. Either way the hot path never formats strings.
type parkReason struct {
	what, name, suffix string
	reason, action     string
}

func newParkReason(reason string) *parkReason {
	return &parkReason{reason: reason, action: "block: " + reason}
}

// format fills reason and action from the parts, once.
func (r *parkReason) format() {
	if r.action == "" {
		r.reason = r.what + r.name + r.suffix
		r.action = "block: " + r.reason
	}
}

// text returns the bare reason, for deadlock reports.
func (r *parkReason) text() string {
	r.format()
	return r.reason
}

// act returns the "block: "-prefixed trace action.
func (r *parkReason) act() string {
	r.format()
	return r.action
}

// waitKey interns one wait reason: the park kind plus the duration's
// bit pattern.
type waitKey struct {
	kind int
	bits uint64
}

// waitReasonCacheLimit bounds the interning cache; a simulation with
// more distinct wait durations than this falls back to formatting per
// event (correct, just slower).
const waitReasonCacheLimit = 1 << 14

// waitReason returns the cached (or newly formatted) reason pair for a
// timed wait. Only called on traced runs.
func (e *Engine) waitReason(kind int, d float64) *parkReason {
	key := waitKey{kind: kind, bits: math.Float64bits(d)}
	slot := &e.waitFront[(key.bits^uint64(kind))*0x9E3779B97F4A7C15>>59&(waitFrontSize-1)]
	if slot.why != nil && slot.key == key {
		return slot.why
	}
	r, ok := e.waitReasons[key]
	if !ok {
		r = newParkReason(formatWaitReason(kind, d))
		if e.waitReasons == nil {
			e.waitReasons = make(map[waitKey]*parkReason)
		}
		if len(e.waitReasons) < waitReasonCacheLimit {
			e.waitReasons[key] = r
		}
	}
	*slot = waitFrontEntry{key: key, why: r}
	return r
}

func formatWaitReason(kind int, d float64) string {
	if kind == parkUntil {
		return fmt.Sprintf("wait until %.3g", d)
	}
	return fmt.Sprintf("wait %.3gs", d)
}

// actor is what the engine's event, trace and deadlock paths need of
// anything that occupies simulated time: a process or a job (job.go).
// Both embed it.
type actor struct {
	name  string
	phase string // telemetry phase annotation, see SetPhase

	// Why the actor is parked, recorded without formatting: parkKind
	// selects the reason family, parkDur the wait duration, parkWhy
	// the primitive's reason (parkOn only).
	parkKind int
	parkDur  float64
	parkWhy  *parkReason
}

// Proc is a simulated process. All Proc methods must be called from the
// process's own function body (they yield to the scheduler).
type Proc struct {
	actor
	eng     *Engine
	fn      func(p *Proc)
	w       *worker // coroutine running fn; nil before the first resume and after exit
	done    bool
	aborted bool
	blocked bool
	pv      any // recovered panic value, if any
}

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Engine returns the owning engine.
func (p *Proc) Engine() *Engine { return p.eng }

// Now returns the current virtual time.
func (p *Proc) Now() float64 { return p.eng.now }

// reason formats why the actor is blocked (deadlock reports only;
// the trace path uses the cached parkReason instead).
func (a *actor) reason() string {
	if a.parkKind == parkOn {
		if a.parkWhy != nil {
			return a.parkWhy.text()
		}
		return "blocked"
	}
	return formatWaitReason(a.parkKind, a.parkDur)
}

// Go spawns a process that starts at the current virtual time. The
// function fn runs on a coroutine, only while the scheduler has
// switched to it; it advances time via p.Wait and friends.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.spawn(e.now, name, fn)
}

// GoAt spawns a process that starts at absolute virtual time t.
func (e *Engine) GoAt(t float64, name string, fn func(p *Proc)) *Proc {
	return e.spawn(t, name, fn)
}

func (e *Engine) spawn(t float64, name string, fn func(p *Proc)) *Proc {
	p := &Proc{actor: actor{name: name}, eng: e, fn: fn}
	e.procs = append(e.procs, p)
	if e.ctr != nil {
		e.ctr.Spawns.Add(1)
	}
	e.scheduleProc(t, p)
	return p
}

// body runs the process function to completion on its worker,
// recording a panic (other than the teardown unwind) for Run to report.
func (p *Proc) body() {
	defer func() {
		r := recover()
		if _, ok := r.(abortError); ok {
			r = nil
		}
		p.pv = r
		p.done = true
	}()
	p.fn(p)
}

// worker is a pooled coroutine that runs process bodies one after
// another. Between bodies it is suspended in yield, which is also how
// it waits in the pool.
type worker struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	p     *Proc // the process being run; nil while pooled
}

func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.p.body()
		if !yield(struct{}{}) {
			return // stopped by putWorker
		}
	}
}

// workerPoolCap bounds the idle workers kept for reuse. It covers the
// live processes of the largest simulations several times over, so a
// design-space sweep's engines rarely create a coroutine; an idle
// worker costs one parked goroutine and its stack.
const workerPoolCap = 256

// workerPool is the process-wide free list of idle workers. It is a
// mutex-guarded slice rather than a sync.Pool: a pool entry dropped by
// the collector would leak its parked goroutine.
var workerPool struct {
	sync.Mutex
	free []*worker
}

func getWorker(p *Proc) *worker {
	var w *worker
	workerPool.Lock()
	if n := len(workerPool.free); n > 0 {
		w = workerPool.free[n-1]
		workerPool.free[n-1] = nil
		workerPool.free = workerPool.free[:n-1]
	}
	workerPool.Unlock()
	if w == nil {
		w = new(worker)
		w.next, w.stop = iter.Pull(w.loop)
	}
	w.p = p
	return w
}

// putWorker returns an idle worker (suspended between bodies) to the
// pool, or ends its coroutine if the pool is full.
func putWorker(w *worker) {
	w.p = nil
	workerPool.Lock()
	pooled := len(workerPool.free) < workerPoolCap
	if pooled {
		workerPool.free = append(workerPool.free, w)
	}
	workerPool.Unlock()
	if !pooled {
		w.stop()
	}
}

// resume switches to p's coroutine until it parks or exits, and
// returns the process to resume next (nil when nothing is runnable).
// Only the driver, Run, calls it.
func (e *Engine) resume(p *Proc) *Proc {
	if p.w == nil {
		p.w = getWorker(p)
	}
	e.next = nil
	p.w.next()
	if !p.done {
		return e.next // parked; it popped events up to its successor
	}
	putWorker(p.w)
	p.w = nil
	if p.pv != nil {
		if e.failure == nil {
			e.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, p.pv)
		}
		return nil
	}
	return e.dispatch(nil)
}

// dispatch advances the event loop. It pops events and runs scheduler
// callbacks inline until it reaches a process resume, and returns that
// process; self is the parking caller (nil in the driver), for which
// resuming costs no switch at all. It returns nil when nothing remains
// runnable: queue empty or horizon reached.
func (e *Engine) dispatch(self *Proc) *Proc {
	for {
		if e.queue.len() == 0 {
			return nil
		}
		if e.until > 0 && e.queue.ev[0].t > e.until {
			e.now = e.until
			e.horizon = true
			return nil
		}
		ev := e.queue.pop()
		e.now = ev.t
		if e.ctr != nil {
			e.ctr.EventsPopped.Add(1)
		}
		p := ev.p
		if j := ev.j; j != nil {
			if fn := j.fn; fn != nil {
				j.fn = nil
				e.recycle(j)
				if e.ctr != nil {
					e.ctr.Callbacks.Add(1)
				}
				fn() // scheduler-context callback
				continue
			}
			// A job or fused-sequence boundary, handled inline; only a
			// fused sequence's final boundary resumes its process.
			if p = e.chainStep(j); p == nil {
				continue
			}
		}
		if p.done {
			continue
		}
		if p.blocked {
			p.blocked = false
			e.nblocked--
		}
		e.emitEvent(e.now, p.name, "resume")
		if e.ctr != nil {
			if p == self {
				e.ctr.SelfResumes.Add(1)
			} else {
				e.ctr.Handoffs.Add(1)
			}
		}
		return p
	}
}

// park suspends the calling process; the caller must have already
// arranged for a future resume. The reason (recorded without
// formatting for deadlock reports, and as a cached string for traces)
// is given by kind/why/dur; see parkOn and friends.
func (p *Proc) park(kind int, why *parkReason, dur float64) {
	if p.aborted {
		panic(abortError{})
	}
	e := p.eng
	p.blocked = true
	e.nblocked++
	p.parkKind, p.parkWhy, p.parkDur = kind, why, dur
	if e.tracing() {
		if why == nil {
			why = e.waitReason(kind, dur)
		}
		e.emitEvent(e.now, p.name, why.act())
	}
	next := e.dispatch(p)
	if next == p {
		return // next runnable process is this one: no switch needed
	}
	e.next = next
	p.w.yield(struct{}{})
	if p.aborted {
		panic(abortError{})
	}
}

// Wait advances the process's local view of time by dt seconds (dt < 0
// is treated as 0).
func (p *Proc) Wait(dt float64) {
	if dt < 0 {
		dt = 0
	}
	e := p.eng
	e.scheduleProc(e.now+dt, p)
	p.park(parkWait, nil, dt)
}

// WaitUntil advances to absolute virtual time t (no-op if t <= now).
func (p *Proc) WaitUntil(t float64) {
	e := p.eng
	e.scheduleProc(t, p)
	p.park(parkUntil, nil, t)
}

// Deadlock describes processes and jobs blocked forever at the end of
// a run.
type Deadlock struct {
	// Time is the virtual time the simulation stalled at.
	Time float64
	// Stuck maps process and job names to the reason each was
	// blocked. When several blocked ones share a name, the reason of
	// the most recently started one wins, deterministically (processes
	// and jobs are scanned in spawn and launch order).
	Stuck map[string]string
}

// Error renders the report with process names in sorted order, so the
// message is stable across runs for tests and CI diffs.
func (d *Deadlock) Error() string {
	names := make([]string, 0, len(d.Stuck))
	for n := range d.Stuck {
		names = append(names, n)
	}
	sort.Strings(names)
	s := fmt.Sprintf("sim: deadlock at t=%.6g: %d process(es) blocked:", d.Time, len(names))
	for _, n := range names {
		s += fmt.Sprintf("\n  %s: %s", n, d.Stuck[n])
	}
	return s
}

// Run drives the simulation until the event queue is empty, a process
// panics, or (if until > 0) virtual time reaches until. It returns a
// *Deadlock error if processes remain blocked with no pending events,
// or the first process panic. Run aborts and unwinds any still-blocked
// processes before returning, so their coroutines go back to the pool.
//
// Run must not be called from a goroutine locked to its OS thread
// (runtime.LockOSThread, or package initialization, during which the
// runtime locks the main goroutine): the pooled coroutines are shared
// by all goroutines, and the runtime aborts the program when a locked
// goroutine switches to a coroutine created on another thread.
func (e *Engine) Run(until float64) error {
	if e.running {
		return fmt.Errorf("sim: Run is not reentrant")
	}
	e.running = true
	defer func() { e.running = false }()
	defer e.abortBlocked()

	e.until = until
	e.horizon = false
	for p := e.dispatch(nil); p != nil; {
		p = e.resume(p)
	}

	if e.failure != nil {
		return e.failure
	}
	if !e.horizon && (e.nblocked > 0 || e.liveHead != nil) {
		// A live job at a drained queue is queued on a resource. Jobs
		// interleave with processes in the order they started: job.ord
		// counts the processes spawned before the launch.
		d := &Deadlock{Time: e.now, Stuck: make(map[string]string, e.nblocked)}
		j := e.liveHead
		for i, p := range e.procs {
			for ; j != nil && j.ord <= i; j = j.next {
				d.Stuck[j.name] = j.reason()
			}
			if p.blocked {
				d.Stuck[p.name] = p.reason()
			}
		}
		for ; j != nil; j = j.next {
			d.Stuck[j.name] = j.reason()
		}
		return d
	}
	return nil
}

// abortBlocked ends every live process: a parked one is resumed with
// its abort flag set, so its body unwinds through abortError and its
// worker returns to the pool; one never started has no coroutine and
// is just marked done. Live jobs are simply dropped. It then recycles
// the event queue's scratch.
func (e *Engine) abortBlocked() {
	e.liveHead, e.liveTail = nil, nil
	e.poolSpare()
	for _, p := range e.procs {
		if p.done {
			continue
		}
		p.blocked = false
		if p.w == nil {
			p.done = true
			continue
		}
		p.aborted = true
		p.w.next()
		putWorker(p.w)
		p.w = nil
	}
	e.nblocked = 0
	// Drop events referencing finished procs and return the cleared
	// backing array to the pool for the next engine.
	e.queue.reset()
	if ev := e.queue.ev; ev != nil {
		e.queue.ev = nil
		queuePool.Put(ev)
		if e.ctr != nil {
			e.ctr.QueueRecycles.Add(1)
		}
	}
}
