package sim

import "fmt"

// Resource is a counted resource with a FIFO wait queue — a processor
// core, an FPGA compute array, a DMA channel, a network link. Acquire
// blocks the calling process while the resource is saturated; waiters
// are served in request order, which keeps simulations deterministic.
type Resource struct {
	eng      *Engine
	name     string
	device   Device
	capacity int
	inUse    int
	// waiters is a head-indexed FIFO over a reusable backing array
	// (see Mailbox): popped slots are cleared and a drained queue
	// rewinds, so steady-state contention allocates nothing.
	waiters []waiter
	whead   int
	why     parkReason

	// utilization accounting
	lastChange float64
	busyInt    float64 // integral of inUse over time
	acquires   int64
	waitInt    float64 // total seconds processes spent queued
	waits      int64   // number of acquires that had to queue
}

// waiter is a queued process, or a queued job step (j), on a Resource,
// a Mailbox or a Signal. On a Resource, since is when it joined the
// queue, so the contention wait can be measured and reported as a Sync
// span.
type waiter struct {
	p     *Proc
	j     *job
	since float64
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(e *Engine, name string, capacity int) *Resource {
	if capacity < 1 {
		panic(fmt.Sprintf("sim: resource %q capacity %d < 1", name, capacity))
	}
	return &Resource{eng: e, name: name, capacity: capacity, why: parkReason{what: "acquire ", name: name}}
}

// Name returns the resource name.
func (r *Resource) Name() string { return r.name }

// SetDevice tags the resource with its device kind; spans it emits
// (holds and contention waits) carry the tag. Set it where the resource
// is created, before the simulation runs.
func (r *Resource) SetDevice(d Device) { r.device = d }

// Device returns the resource's device kind (DeviceUnknown if unset).
func (r *Resource) Device() Device { return r.device }

// InUse returns the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting.
func (r *Resource) QueueLen() int { return len(r.waiters) - r.whead }

func (r *Resource) accumulate() {
	r.busyInt += float64(r.inUse) * (r.eng.now - r.lastChange)
	r.lastChange = r.eng.now
}

// Acquire obtains one unit, blocking p in FIFO order if none is free.
// Time spent queued is recorded as contention and, when observers are
// registered, emitted as a Sync span.
func (r *Resource) Acquire(p *Proc) {
	r.acquires++
	if r.inUse < r.capacity {
		r.accumulate()
		r.inUse++
		return
	}
	since := r.eng.now
	r.enqueue(waiter{p: p})
	p.park(parkOn, &r.why, 0)
	// The releaser handed us the unit directly; we resume at the
	// current time with the unit already accounted as in use.
	waited := r.eng.now - since
	r.waitInt += waited
	r.waits++
	if waited > 0 && r.eng.observing() {
		r.eng.EmitSpan(SpanEvent{
			Category: CatSync, Device: r.device, Proc: p.name, Resource: r.name,
			Phase: p.phase, Start: since, End: r.eng.now,
		})
	}
}

// enqueue appends w to the waiter FIFO, compacting the backing array
// when the live window would otherwise force a reallocation: under
// persistent contention the queue never drains, so the rewind in
// Release never fires and append would reallocate forever. Shifting
// the live window to the front (and clearing the vacated tail so old
// entries are released) keeps steady-state contention allocation-free.
func (r *Resource) enqueue(w waiter) {
	if r.whead > 0 && len(r.waiters) == cap(r.waiters) {
		n := copy(r.waiters, r.waiters[r.whead:])
		for i := n; i < len(r.waiters); i++ {
			r.waiters[i] = waiter{}
		}
		r.waiters = r.waiters[:n]
		r.whead = 0
		if r.eng.ctr != nil {
			r.eng.ctr.Compactions.Add(1)
		}
	}
	w.since = r.eng.now
	r.waiters = append(r.waiters, w)
}

// TryAcquire obtains a unit without blocking; it reports success.
func (r *Resource) TryAcquire() bool {
	if r.inUse < r.capacity {
		r.accumulate()
		r.inUse++
		r.acquires++
		return true
	}
	return false
}

// Release returns one unit and wakes the longest-waiting process, if
// any. It may be called from process or scheduler context.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic(fmt.Sprintf("sim: release of idle resource %q", r.name))
	}
	if r.whead < len(r.waiters) {
		// Hand the unit directly to the next waiter: utilization is
		// unchanged, the waiter resumes at the current time.
		next := r.waiters[r.whead]
		r.waiters[r.whead] = waiter{}
		r.whead++
		if r.whead == len(r.waiters) {
			r.waiters = r.waiters[:0]
			r.whead = 0
		}
		e := r.eng
		e.schedule(event{t: e.now, p: next.p, j: next.j})
		return
	}
	r.accumulate()
	r.inUse--
}

// Use acquires the resource, holds it for dt seconds of virtual time,
// and releases it. This is the common "exclusive busy" pattern for
// modeling computation on a device.
func (r *Resource) Use(p *Proc, dt float64) {
	r.Acquire(p)
	p.Wait(dt)
	r.Release()
}

// UseCat is Use with telemetry: the hold interval is emitted as a typed
// span of the given category carrying bytes of payload (pass 0 for
// compute). Queueing ahead of the hold is reported separately as a Sync
// span by Acquire.
func (r *Resource) UseCat(p *Proc, cat Category, bytes int64, dt float64) {
	r.Acquire(p)
	p.WaitSpanOn(cat, r.device, r.name, bytes, dt)
	r.Release()
}

// BusySeconds returns the integral of units-in-use over time up to now.
func (r *Resource) BusySeconds() float64 {
	return r.busyInt + float64(r.inUse)*(r.eng.now-r.lastChange)
}

// Utilization returns BusySeconds normalized by capacity and elapsed
// time (0 if no time has passed).
func (r *Resource) Utilization() float64 {
	if r.eng.now <= 0 {
		return 0
	}
	return r.BusySeconds() / (float64(r.capacity) * r.eng.now)
}

// Acquires returns the total number of successful or queued acquire
// requests, a proxy for coordination frequency.
func (r *Resource) Acquires() int64 { return r.acquires }

// ContentionSeconds returns the total virtual time processes have spent
// queued on the resource (summed across waiters, so it can exceed the
// makespan on a hot resource).
func (r *Resource) ContentionSeconds() float64 {
	s := r.waitInt
	for _, w := range r.waiters[r.whead:] {
		s += r.eng.now - w.since
	}
	return s
}

// Waits returns how many Acquire calls had to queue.
func (r *Resource) Waits() int64 { return r.waits }
