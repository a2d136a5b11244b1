package sim

// Mailbox is an unbounded FIFO message queue between processes in
// virtual time: Put never blocks, Get blocks the receiver until a
// message is available. A job step's Recv gate receives the same way.
// It is the primitive under the MPI layer, the FPGA status registers
// and the stripe queues.
//
// Both the message queue and the waiter queue are head-indexed rings
// over a reusable backing array: popping advances the head (clearing
// the slot so payloads are not retained) and an emptied queue rewinds
// to the array's start, so steady-state Put/Get traffic allocates
// nothing.
type Mailbox struct {
	eng     *Engine
	name    string
	queue   []any
	qhead   int
	waiters []waiter // receiving processes and gated job steps
	whead   int
	why     parkReason
}

// NewMailbox creates an empty mailbox.
func NewMailbox(e *Engine, name string) *Mailbox {
	return &Mailbox{eng: e, name: name, why: parkReason{what: "recv ", name: name}}
}

// Len returns the number of queued messages.
func (m *Mailbox) Len() int { return len(m.queue) - m.qhead }

// popMsg removes and returns the oldest message. The caller must have
// checked Len() > 0.
func (m *Mailbox) popMsg() any {
	v := m.queue[m.qhead]
	m.queue[m.qhead] = nil
	m.qhead++
	if m.qhead == len(m.queue) {
		m.queue = m.queue[:0]
		m.qhead = 0
	}
	return v
}

// Put deposits v and wakes one waiting receiver. It may be called from
// process or scheduler context.
func (m *Mailbox) Put(v any) {
	if m.qhead > 0 && len(m.queue) == cap(m.queue) {
		// A persistent backlog never drains, so popMsg's rewind never
		// fires; compact the live window to the front instead of letting
		// append grow the array forever. Vacated slots are cleared so
		// payloads are not retained.
		n := copy(m.queue, m.queue[m.qhead:])
		for i := n; i < len(m.queue); i++ {
			m.queue[i] = nil
		}
		m.queue = m.queue[:n]
		m.qhead = 0
		if m.eng.ctr != nil {
			m.eng.ctr.Compactions.Add(1)
		}
	}
	m.queue = append(m.queue, v)
	if m.whead < len(m.waiters) {
		next := m.waiters[m.whead]
		m.waiters[m.whead] = waiter{}
		m.whead++
		if m.whead == len(m.waiters) {
			m.waiters = m.waiters[:0]
			m.whead = 0
		}
		e := m.eng
		e.schedule(event{t: e.now, p: next.p, j: next.j})
	}
}

// Get removes and returns the oldest message, blocking p until one
// arrives.
func (m *Mailbox) Get(p *Proc) any {
	for m.Len() == 0 {
		m.wait(waiter{p: p})
		p.park(parkOn, &m.why, 0)
	}
	return m.popMsg()
}

// wait queues a receiver for the next Put.
func (m *Mailbox) wait(w waiter) {
	if m.whead > 0 && len(m.waiters) == cap(m.waiters) {
		// Same compaction as Put's message ring, for the receiver
		// queue: many parked receivers that are never all woken at
		// once would otherwise grow the array without bound.
		n := copy(m.waiters, m.waiters[m.whead:])
		for i := n; i < len(m.waiters); i++ {
			m.waiters[i] = waiter{}
		}
		m.waiters = m.waiters[:n]
		m.whead = 0
		if m.eng.ctr != nil {
			m.eng.ctr.Compactions.Add(1)
		}
	}
	m.waiters = append(m.waiters, w)
}

// TryGet removes and returns the oldest message without blocking; ok is
// false if the mailbox is empty.
func (m *Mailbox) TryGet() (v any, ok bool) {
	if m.Len() == 0 {
		return nil, false
	}
	return m.popMsg(), true
}

// Signal is a broadcast condition: processes Wait on it (and job steps
// with an Await gate), and Fire releases all current waiters
// simultaneously (at the current virtual time). It models the FPGA
// "done" status register the processor polls.
type Signal struct {
	eng     *Engine
	fired   bool
	waiters []waiter // waiting processes and gated job steps
	why     parkReason
	job     *job // the job this is the done signal of; nil from NewSignal
}

// NewSignal creates an unfired signal.
func NewSignal(e *Engine, name string) *Signal {
	return &Signal{eng: e, why: parkReason{what: "signal ", name: name}}
}

// Fired reports whether Fire has been called.
func (s *Signal) Fired() bool { return s.fired }

// Fire releases all waiters. Subsequent Wait calls return immediately
// until Reset.
func (s *Signal) Fire() {
	s.fired = true
	e := s.eng
	for i, w := range s.waiters {
		s.waiters[i] = waiter{}
		e.schedule(event{t: e.now, p: w.p, j: w.j})
	}
	s.waiters = s.waiters[:0]
}

// Reset re-arms the signal.
func (s *Signal) Reset() { s.fired = false }

// Wait blocks p until the signal fires (returns immediately if already
// fired).
func (s *Signal) Wait(p *Proc) {
	if s.fired {
		return
	}
	s.waiters = append(s.waiters, waiter{p: p})
	p.park(parkOn, &s.why, 0)
}

// Barrier synchronizes n processes: each calls Arrive, and all resume
// once the n-th arrives. It resets automatically for reuse.
type Barrier struct {
	eng     *Engine
	name    string
	n       int
	arrived int
	waiters []*Proc
	why     parkReason
}

// NewBarrier creates a barrier for n processes.
func NewBarrier(e *Engine, name string, n int) *Barrier {
	if n < 1 {
		panic("sim: barrier size must be >= 1")
	}
	return &Barrier{eng: e, name: name, n: n, why: parkReason{what: "barrier ", name: name}}
}

// Arrive blocks p until all n participants have arrived.
func (b *Barrier) Arrive(p *Proc) {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		e := b.eng
		for i, w := range b.waiters {
			b.waiters[i] = nil
			e.scheduleProc(e.now, w)
		}
		b.waiters = b.waiters[:0]
		return
	}
	b.waiters = append(b.waiters, p)
	p.park(parkOn, &b.why, 0)
}
