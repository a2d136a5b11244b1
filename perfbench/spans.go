package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// hostSpan is one interval of host time the benchmark spent inside a
// call into the program: its name, the span that caused it, and the
// identifier shared by every span of one request, run or sweep point.
type hostSpan struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Trace  string `json:"trace"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the spans one run keeps in memory; later spans are
// counted as dropped.
const maxSpans = 1 << 20

// tracer keeps host spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths pay one nil check per span.
// It is safe for concurrent use.
type tracer struct {
	epoch   time.Time
	next    atomic.Int64
	mu      sync.Mutex
	spans   []hostSpan
	dropped int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// id reserves a span identifier, so children can name a parent that
// has not ended yet.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.next.Add(1)
}

// record stores one finished span under a reserved id.
func (t *tracer) record(id, parent int64, name, trace string, start, end time.Time) {
	if t == nil {
		return
	}
	s := hostSpan{ID: id, Parent: parent, Name: name, Trace: trace,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// span times fn as one span named name under parent and returns fn's
// duration; fn receives the new span's id for its own children.
func (t *tracer) span(parent int64, name, trace string, fn func(id int64)) time.Duration {
	id := t.id()
	start := time.Now()
	fn(id)
	end := time.Now()
	t.record(id, parent, name, trace, start, end)
	return end.Sub(start)
}

// selfRow aggregates the spans of one name.
type selfRow struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes computes every span's self time — its duration minus the
// part of its interval its child spans cover — and sums both per span
// name, largest self time first.
func selfTimes(spans []hostSpan) []selfRow {
	children := make(map[int64][]hostSpan)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.Total += time.Duration(s.End - s.Start)
		r.Self += time.Duration(s.End - s.Start - covered(s, children[s.ID]))
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of the children's intervals covers.
func covered(parent hostSpan, kids []hostSpan) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var sum, end int64
	for _, v := range ivs {
		if v.lo > end {
			end = v.lo
		}
		if v.hi > end {
			sum += v.hi - end
			end = v.hi
		}
	}
	return sum
}

// spanHeader is the first line of a host span file.
type spanHeader struct {
	Schema   int    `json:"schema"`
	Kind     string `json:"kind"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Spans    int    `json:"spans"`
	Dropped  int    `json:"dropped"`
}

// writeSpans writes the kept spans as JSONL: one header line, then one
// line per span in recording order.
func (t *tracer) writeSpans(w io.Writer, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(spanHeader{Schema: 1, Kind: "host", Workload: workload, Seed: seed,
		Spans: len(t.spans), Dropped: t.dropped}); err != nil {
		return err
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeSelfTimes prints the self-time table of the kept spans.
func (t *tracer) writeSelfTimes(w io.Writer) {
	t.mu.Lock()
	rows := selfTimes(t.spans)
	t.mu.Unlock()
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %8d %12.3f %12.3f\n", r.Name, r.Count,
			float64(r.Total)/1e6, float64(r.Self)/1e6)
	}
}
