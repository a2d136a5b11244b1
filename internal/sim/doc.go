// Package sim is a deterministic process-based discrete-event simulation
// engine. Simulated entities (a node's processor, its FPGA, a DMA
// engine, a network link) are processes — coroutines that run one at a
// time under a scheduler and advance a shared virtual clock by waiting.
// A unit that runs a list of charges once started, such as an FPGA
// datapath job, is a job instead (Engine.Launch): the engine advances
// its steps in scheduler context, with no process or coroutine, and
// fires its done signal at the end, emitting exactly the events and
// spans a process running the same steps would. A job's steps may come
// from a cursor (Engine.LaunchCursor), wait on a mailbox message or a
// signal before they start (Step.Recv, Step.Await) and act when they
// end (Step.After), so both halves of a stripe pipeline — the
// processor streaming stripes into a queue, the array consuming them —
// run as jobs.
//
// The engine is the substrate on which the reconfigurable computing
// system is modeled: it charges virtual time for computation, DRAM
// transfers and network messages, and serializes contention on shared
// resources exactly as the co-design model of the paper requires (e.g.
// a processor that is communicating cannot compute, per Section 4.3,
// while an FPGA streaming from DRAM can — the overlap assumption of
// Section 4.5).
//
// Determinism: with the same program, every run produces the identical
// event order (ties in virtual time break by scheduling sequence
// number), so simulated latencies are reproducible to the last digit.
// Observers receive typed SpanEvents as activity completes; the
// internal/trace and internal/analysis layers consume that stream.
package sim
