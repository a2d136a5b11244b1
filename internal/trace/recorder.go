package trace

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"

	"codesign/internal/sim"
)

// Recorder implements sim.Observer: it counts the raw event stream
// and captures every typed span for post-run analysis. Register it with
// Engine.Observe (or pass it through an application config's Observer
// field). The recorder keeps everything in memory; simulated runs emit
// at most a few spans per block operation, so this is cheap at the
// paper's problem sizes.
//
// The span log never copies to grow. spans is its contiguous head;
// once the head is full, further spans go to overflow chunks that are
// each allocated once and filled in place (see growSpans). The first
// reader that needs one slice (SpansView, and through it Summarize and
// the writers) consolidates head and chunks into a single exactly
// sized head, so a recording pays for one copy of its log at most, at
// read time, instead of the repeated regrowth of an append-grown
// slice. Reset keeps the head's storage, so a reused recorder fills it
// in place on the next run of the same or a smaller size. Because a
// reader may consolidate the log, a Recorder is not safe for
// concurrent use, not even by readers alone.
type Recorder struct {
	spans    []sim.SpanEvent
	overflow [][]sim.SpanEvent
	nOver    int // spans held in overflow
	nEvents  int // raw events seen; they are counted, not stored
}

// minChunk is the smallest span-log chunk: 256 spans of 88 bytes,
// about 22 KB. Later chunks hold a quarter of the log so far, so the
// allocated but unfilled tail never exceeds the 25% slack append's
// large-slice growth leaves, and a log of n spans takes O(log n)
// chunks.
const minChunk = 256

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Event counts one raw engine action (sim.Observer).
func (r *Recorder) Event(t float64, proc, action string) { r.nEvents++ }

// Span stores one completed typed span (sim.Observer).
func (r *Recorder) Span(s sim.SpanEvent) {
	if len(r.overflow) == 0 {
		if len(r.spans) < cap(r.spans) {
			r.spans = append(r.spans, s)
			return
		}
	} else if c := &r.overflow[len(r.overflow)-1]; len(*c) < cap(*c) {
		*c = append(*c, s)
		r.nOver++
		return
	}
	r.growSpans(s)
}

// growSpans stores s in a fresh chunk: the head while it has no
// storage, an overflow chunk otherwise. Nothing already recorded moves.
func (r *Recorder) growSpans(s sim.SpanEvent) {
	c := make([]sim.SpanEvent, 1, max(minChunk, r.spanCount()/4))
	c[0] = s
	if cap(r.spans) == 0 {
		r.spans = c
		return
	}
	r.overflow = append(r.overflow, c)
	r.nOver++
}

// spanCount returns the number of recorded spans.
func (r *Recorder) spanCount() int { return len(r.spans) + r.nOver }

// appendSpans appends the log to dst in emission order.
func (r *Recorder) appendSpans(dst []sim.SpanEvent) []sim.SpanEvent {
	dst = append(dst, r.spans...)
	for _, c := range r.overflow {
		dst = append(dst, c...)
	}
	return dst
}

// Spans returns the recorded spans in emission (end-time) order.
func (r *Recorder) Spans() []sim.SpanEvent {
	return r.appendSpans(make([]sim.SpanEvent, 0, r.spanCount()))
}

// SpansView returns the recorded spans without copying. The slice
// aliases the recorder's buffer: it is valid until the next Span or
// Reset call, and callers must not modify or retain it. Hot paths
// (the design-space sweep digests a span stream per grid point) use it
// to avoid a per-run copy; everyone else should prefer Spans. When the
// log has overflowed its head, the first call consolidates it into one
// exactly sized buffer; later calls return that buffer as is.
func (r *Recorder) SpansView() []sim.SpanEvent {
	if len(r.overflow) > 0 {
		r.spans = r.appendSpans(make([]sim.SpanEvent, 0, r.spanCount()))
		r.overflow, r.nOver = nil, 0
	}
	return r.spans
}

// Reset discards everything recorded so far. The head's storage is
// kept for reuse; after a SpansView it holds the whole previous log.
func (r *Recorder) Reset() {
	r.spans = r.spans[:0]
	r.overflow, r.nOver = nil, 0
	r.nEvents = 0
}

// Mark is a position in a recorder's log: the spans and events
// recorded before it. SummarizeSince digests what follows a mark, so
// one recorder can observe several runs and still yield each run's
// own Summary.
type Mark struct{ spans, events int }

// Mark returns the current end of the log.
func (r *Recorder) Mark() Mark { return Mark{spans: r.spanCount(), events: r.nEvents} }

// Summarize digests the recorded spans into a Summary: per-process
// busy/wait, per-resource busy/contention, bytes moved, and the
// overlap decomposition against the given makespan (pass the engine's
// final virtual time).
func (r *Recorder) Summarize(makespan float64) *Summary {
	return r.SummarizeSince(Mark{}, makespan)
}

// SummarizeSince is Summarize over the spans and events recorded after
// m only.
func (r *Recorder) SummarizeSince(m Mark, makespan float64) *Summary {
	spans := r.SpansView()[m.spans:]
	s := &Summary{
		Makespan: makespan,
		Spans:    len(spans),
		Events:   r.nEvents - m.events,
	}
	procs := map[string]*ProcStats{}
	ress := map[string]*ResourceStats{}
	for _, sp := range spans {
		d := sp.End - sp.Start
		p := procs[sp.Proc]
		if p == nil {
			p = &ProcStats{Name: sp.Proc}
			procs[sp.Proc] = p
		}
		if sp.Category == sim.CatSync {
			p.Waiting += d
		} else {
			p.Busy += d
			p.Bytes += sp.Bytes
		}
		if sp.Resource != "" {
			res := ress[sp.Resource]
			if res == nil {
				res = &ResourceStats{Name: sp.Resource}
				ress[sp.Resource] = res
			}
			res.Spans++
			if sp.Category == sim.CatSync {
				res.Contention += d
			} else {
				res.Busy += d
				res.Bytes += sp.Bytes
			}
		}
		switch sp.Category {
		case sim.CatDMA:
			s.DRAMBytes += sp.Bytes
		case sim.CatNetwork:
			s.NetworkBytes += sp.Bytes
		}
	}
	for _, k := range sortedKeys(procs) {
		s.Procs = append(s.Procs, *procs[k])
	}
	for _, k := range sortedKeys(ress) {
		s.Resources = append(s.Resources, *ress[k])
	}
	s.Overlap = ComputeOverlap(spans, makespan)
	return s
}

// perfetto trace_event structures. Fields are structs (never maps) so
// JSON field order — and therefore the exported bytes — is fixed.
// The arg keys (except "name", which is thread metadata) are drawn
// from the span schema (SpanRecord); a test pins them to
// SpanFieldNames so the formats cannot drift.
type perfettoArgs struct {
	Name     string `json:"name,omitempty"`
	Device   string `json:"device,omitempty"`
	Resource string `json:"resource,omitempty"`
	Phase    string `json:"phase,omitempty"`
	Bytes    int64  `json:"bytes,omitempty"`
}

type perfettoEvent struct {
	Name string        `json:"name"`
	Cat  string        `json:"cat,omitempty"`
	Ph   string        `json:"ph"`
	Ts   float64       `json:"ts"`
	Dur  float64       `json:"dur,omitempty"`
	Pid  int           `json:"pid"`
	Tid  int           `json:"tid"`
	Args *perfettoArgs `json:"args,omitempty"`
}

// WritePerfetto exports the spans as Chrome trace_event JSON loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing. Each process gets
// a thread track (tid assigned in first-span order) named via "M"
// metadata events; spans become "X" complete events with timestamps
// and durations in microseconds of virtual time. Output is
// deterministic: identical runs export identical bytes.
func (r *Recorder) WritePerfetto(w io.Writer) error {
	spans := r.SpansView()
	tids := map[string]int{}
	var names []string
	for _, sp := range spans {
		if _, ok := tids[sp.Proc]; !ok {
			tids[sp.Proc] = len(names)
			names = append(names, sp.Proc)
		}
	}
	events := make([]perfettoEvent, 0, len(spans)+len(names))
	for i, n := range names {
		events = append(events, perfettoEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: i,
			Args: &perfettoArgs{Name: n},
		})
	}
	const usec = 1e6
	for _, sp := range spans {
		ev := perfettoEvent{
			Name: sp.Category.String(),
			Cat:  sp.Category.String(),
			Ph:   "X",
			Ts:   sp.Start * usec,
			Dur:  (sp.End - sp.Start) * usec,
			Pid:  0,
			Tid:  tids[sp.Proc],
		}
		if sp.Resource != "" || sp.Phase != "" || sp.Bytes != 0 || sp.Device != sim.DeviceUnknown {
			ev.Args = &perfettoArgs{Resource: sp.Resource, Phase: sp.Phase, Bytes: sp.Bytes}
			if sp.Device != sim.DeviceUnknown {
				ev.Args.Device = sp.Device.String()
			}
		}
		events = append(events, ev)
	}
	if _, err := io.WriteString(w, `{"traceEvents":[`); err != nil {
		return err
	}
	for i, ev := range events {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}

// WriteSpansCSV exports the spans as RFC-4180 CSV. The header is the
// span schema's canonical field list (SpanFieldNames), currently
// "start_s,end_s,category,device,process,resource,phase,bytes"; the
// device column is empty for spans whose emitter declared no device.
// ReadSpansCSV reads this format back (and the older header without
// the device column).
func (r *Recorder) WriteSpansCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(SpanFieldNames()); err != nil {
		return err
	}
	for _, sp := range r.SpansView() {
		rec := RecordOf(sp)
		row := []string{
			strconv.FormatFloat(rec.Start, 'f', 9, 64),
			strconv.FormatFloat(rec.End, 'f', 9, 64),
			rec.Category,
			rec.Device,
			rec.Proc,
			rec.Resource,
			rec.Phase,
			strconv.FormatInt(rec.Bytes, 10),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ByCategory returns total span seconds per category, a quick
// aggregate for tests and ad-hoc inspection.
func (r *Recorder) ByCategory() map[sim.Category]float64 {
	out := map[sim.Category]float64{}
	for _, sp := range r.SpansView() {
		out[sp.Category] += sp.End - sp.Start
	}
	return out
}
