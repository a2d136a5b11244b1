package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"codesign/internal/sim"
)

// logSpan is the i-th span of a synthetic log: ends are nondecreasing,
// as in recorder emission order, and every field varies with i, so a
// reordered, dropped or duplicated span shows up in any comparison.
func logSpan(i int) sim.SpanEvent {
	return sim.SpanEvent{
		Category: sim.Category(i % 4),
		Device:   sim.Device(i % 3),
		Proc:     fmt.Sprintf("p%d", i%7),
		Resource: fmt.Sprintf("r%d", i%5),
		Phase:    fmt.Sprintf("ph%d", i%3),
		Start:    float64(i/2) * 0.5,
		End:      float64(i/2)*0.5 + 1,
		Bytes:    int64(i % 11),
	}
}

// growthBoundaries lists the span counts at which the log starts a new
// chunk, up to limit, following the policy in growSpans.
func growthBoundaries(limit int) []int {
	var out []int
	for n := minChunk; n <= limit; n += max(minChunk, n/4) {
		out = append(out, n)
	}
	return out
}

// spanLogCounts are span counts on both sides of every growth boundary
// up to about 20k spans, plus the empty and one-span logs.
func spanLogCounts() []int {
	counts := []int{0, 1}
	for _, b := range growthBoundaries(20000) {
		counts = append(counts, b-1, b, b+1)
	}
	return counts
}

// sameSpans reports whether two logs hold the same spans in the same
// order (an empty log may be nil).
func sameSpans(a, b []sim.SpanEvent) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// record fills a recorder and a plain-append reference recorder (the
// whole log in its head, as an append-grown slice holds it) with the
// same n spans.
func record(n int) (rec, ref *Recorder) {
	rec, ref = NewRecorder(), NewRecorder()
	for i := 0; i < n; i++ {
		rec.Span(logSpan(i))
		ref.spans = append(ref.spans, logSpan(i))
	}
	return rec, ref
}

func TestSpanLogMatchesAppendReference(t *testing.T) {
	if b := growthBoundaries(20000); len(b) < 10 {
		t.Fatalf("only %d growth boundaries below 20000 spans: %v", len(b), b)
	}
	for _, n := range spanLogCounts() {
		rec, ref := record(n)
		// Spans copies straight out of the chunks, before anything
		// has consolidated the log.
		got := rec.Spans()
		if !sameSpans(got, ref.spans) {
			t.Fatalf("n=%d: Spans differs from the append reference", n)
		}
		if len(got) > 0 {
			got[0].Proc = "mutated"
			if rec.Spans()[0].Proc == "mutated" {
				t.Fatalf("n=%d: Spans aliases the recorder's log", n)
			}
		}
		view := rec.SpansView()
		if !sameSpans(view, ref.spans) {
			t.Fatalf("n=%d: SpansView differs from the append reference", n)
		}
		for i := 1; i < len(view); i++ {
			if view[i].End < view[i-1].End {
				t.Fatalf("n=%d: span %d ends before span %d", n, i, i-1)
			}
		}
		if again := rec.SpansView(); n > 0 && &again[0] != &view[0] {
			t.Fatalf("n=%d: a second SpansView copied the log again", n)
		}
	}
}

func TestSpanLogWritersMatchAppendReference(t *testing.T) {
	writers := []struct {
		name  string
		write func(r *Recorder, w *bytes.Buffer) error
	}{
		{"csv", func(r *Recorder, w *bytes.Buffer) error { return r.WriteSpansCSV(w) }},
		{"jsonl", func(r *Recorder, w *bytes.Buffer) error {
			return r.WriteSpans(w, Meta{App: "lu", Machine: "xd1", Makespan: 1})
		}},
		{"perfetto", func(r *Recorder, w *bytes.Buffer) error { return r.WritePerfetto(w) }},
	}
	for _, n := range spanLogCounts() {
		for _, wr := range writers {
			// A fresh recorder per writer, so each one also reads a
			// log that no earlier reader has consolidated.
			rec, ref := record(n)
			var got, want bytes.Buffer
			if err := wr.write(rec, &got); err != nil {
				t.Fatal(err)
			}
			if err := wr.write(ref, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("n=%d: %s output differs from the append reference", n, wr.name)
			}
		}
	}
}

func TestSpanLogResetReuse(t *testing.T) {
	const n = 5000
	rec, _ := record(n)
	head := &rec.SpansView()[0]
	rec.Reset()
	if got := rec.SpansView(); len(got) != 0 {
		t.Fatalf("Reset left %d spans", len(got))
	}
	// A run of the same size refills the consolidated head in place.
	for i := 0; i < n; i++ {
		rec.Span(logSpan(n + i))
	}
	view := rec.SpansView()
	if &view[0] != head {
		t.Fatal("a same-size run after Reset did not reuse the span storage")
	}
	for i, s := range view {
		if s != logSpan(n+i) {
			t.Fatalf("span %d after Reset = %+v, want %+v", i, s, logSpan(n+i))
		}
	}
	// Warm reuse allocates nothing: the sweep's pooled recorders
	// depend on it.
	spans := rec.Spans()
	allocs := testing.AllocsPerRun(5, func() {
		rec.Reset()
		for _, s := range spans {
			rec.Span(s)
		}
		_ = rec.SpansView()
	})
	if allocs != 0 {
		t.Fatalf("warm record-and-view allocated %v times per run", allocs)
	}
	// A larger run grows past the reused head and still reads back
	// in emission order.
	rec.Reset()
	for i := 0; i < 3*n; i++ {
		rec.Span(logSpan(i))
	}
	_, ref := record(3 * n)
	if !sameSpans(rec.SpansView(), ref.spans) {
		t.Fatal("a larger run after Reset differs from the append reference")
	}
}

func TestSpanLogResetWithoutView(t *testing.T) {
	// A log reset while it still has overflow chunks drops them and
	// refills its head in emission order.
	rec, _ := record(20000)
	rec.Reset()
	if len(rec.overflow) != 0 || rec.nOver != 0 || len(rec.SpansView()) != 0 {
		t.Fatal("Reset kept overflow spans")
	}
	for i := 0; i < 3000; i++ {
		rec.Span(logSpan(i))
	}
	_, ref := record(3000)
	if !sameSpans(rec.Spans(), ref.spans) || !sameSpans(rec.SpansView(), ref.spans) {
		t.Fatal("reuse after Reset differs from the append reference")
	}
}

func TestSummarizeSinceCoversOnlyLaterSpans(t *testing.T) {
	// Two "runs" into one recorder: the digest from the mark on must
	// equal the digest of a recorder that saw the second run alone.
	rec, alone := NewRecorder(), NewRecorder()
	for i := 0; i < 700; i++ {
		rec.Span(logSpan(i))
		rec.Event(float64(i), "p", "resume")
	}
	m := rec.Mark()
	for i := 0; i < 900; i++ {
		s := logSpan(i + 3)
		rec.Span(s)
		alone.Span(s)
		rec.Event(float64(i), "q", "block")
		alone.Event(float64(i), "q", "block")
	}
	got, want := rec.SummarizeSince(m, 500), alone.Summarize(500)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("SummarizeSince = %+v\nwant %+v", got, want)
	}
	if got.Spans != 900 || got.Events != 900 {
		t.Fatalf("SummarizeSince counted %d spans, %d events; want 900, 900", got.Spans, got.Events)
	}
	if full := rec.Summarize(500); full.Spans != 1600 || full.Events != 1600 {
		t.Fatalf("Summarize counted %d spans, %d events; want 1600, 1600", full.Spans, full.Events)
	}
}
