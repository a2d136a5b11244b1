package core

import (
	"bytes"
	"math"
	"reflect"
	"testing"

	"codesign/internal/sim"
	"codesign/internal/trace"
)

// smallLU is a hybrid LU configuration small enough for tests but large
// enough to exercise panels, broadcasts, opMM jobs and scatter.
func smallLU() LUConfig {
	return LUConfig{N: 240, B: 40, PEs: 4, BF: -1, L: -1, Mode: Hybrid}
}

func TestLUTelemetryOverlapSums(t *testing.T) {
	cfg := smallLU()
	cfg.Telemetry = true
	r, err := RunLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Telemetry
	if s == nil {
		t.Fatal("Telemetry=true produced no summary")
	}
	if s.Makespan != r.Seconds {
		t.Fatalf("makespan %v != run seconds %v", s.Makespan, r.Seconds)
	}
	if s.Spans == 0 || s.Events == 0 {
		t.Fatalf("empty telemetry: %d spans, %d events", s.Spans, s.Events)
	}
	// The exposed components partition the makespan exactly.
	if got := s.Overlap.Sum(); math.Abs(got-s.Makespan) > 1e-6*s.Makespan {
		t.Fatalf("overlap sum %v != makespan %v", got, s.Makespan)
	}
	// In this design every instant of the run is attributable to one of
	// the four model terms: the acceptance criterion of the telemetry
	// layer. Sync waits overlap busy spans on other processes and idle
	// only appears when no process does anything at all.
	four := s.Overlap.Tf + s.Overlap.Tp + s.Overlap.Tmem + s.Overlap.Tcomm
	if math.Abs(four-s.Makespan) > 1e-6*s.Makespan {
		t.Fatalf("Tf+Tp+Tmem+Tcomm = %v, want makespan %v (sync %v, idle %v)",
			four, s.Makespan, s.Overlap.Sync, s.Overlap.Idle)
	}
	if s.Overlap.Tf <= 0 || s.Overlap.Tp <= 0 {
		t.Fatalf("hybrid run should expose both compute terms: Tf=%v Tp=%v",
			s.Overlap.Tf, s.Overlap.Tp)
	}
	eff := s.Overlap.Efficiency()
	if eff < 0 || eff > 1 {
		t.Fatalf("overlap efficiency %v out of [0,1]", eff)
	}
}

func TestTelemetryBytesMatchIndependentCounters(t *testing.T) {
	cfg := smallLU()
	cfg.Telemetry = true
	r, err := RunLU(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Network payload is attached only to fabric wire spans, so the
	// span-derived total must equal the fabric's own byte counter.
	if r.Telemetry.NetworkBytes != r.NetworkBytes {
		t.Fatalf("span network bytes %d != fabric bytes %d",
			r.Telemetry.NetworkBytes, r.NetworkBytes)
	}
	if r.Telemetry.DRAMBytes <= 0 {
		t.Fatalf("hybrid run streamed no DRAM bytes")
	}
}

func TestTelemetryAllApps(t *testing.T) {
	check := func(name string, res *Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := res.Telemetry
		if s == nil {
			t.Fatalf("%s: no telemetry", name)
		}
		if got := s.Overlap.Sum(); math.Abs(got-s.Makespan) > 1e-6*math.Max(s.Makespan, 1e-12) {
			t.Fatalf("%s: overlap sum %v != makespan %v", name, got, s.Makespan)
		}
		if s.Spans == 0 {
			t.Fatalf("%s: no spans", name)
		}
	}
	lu, err := RunLU(LUConfig{N: 120, B: 20, PEs: 4, BF: -1, L: -1, Mode: Hybrid, Telemetry: true})
	check("lu", &lu.Result, err)
	fw, err := RunFW(FWConfig{N: 96, B: 8, PEs: 4, L1: -1, Mode: Hybrid, Telemetry: true})
	check("fw", &fw.Result, err)
	mm, err := RunMM(MMConfig{N: 96, PEs: 4, BF: -1, Mode: Hybrid, Telemetry: true})
	check("mm", &mm.Result, err)
	ch, err := RunCholesky(CholConfig{N: 120, B: 20, PEs: 4, BF: -1, L: -1, Mode: Hybrid, Telemetry: true})
	check("chol", &ch.Result, err)
	qr, err := RunQR(QRConfig{N: 120, B: 20, PEs: 4, BF: -1, Mode: Hybrid, Telemetry: true})
	check("qr", &qr.Result, err)
	cg, err := RunCG(CGConfig{N: 64, Mode: Hybrid, Seed: 1, Telemetry: true})
	check("cg", &cg.Result, err)
}

func TestPerfettoExportDeterministic(t *testing.T) {
	export := func() []byte {
		rec := trace.NewRecorder()
		cfg := smallLU()
		cfg.Observer = rec
		if _, err := RunLU(cfg); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WritePerfetto(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if len(a) == 0 {
		t.Fatal("empty perfetto export")
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs exported different traces (%d vs %d bytes)", len(a), len(b))
	}
}

// traceEvent is one raw engine event, as the legacy hook and the
// observer each see it.
type traceEvent struct {
	t            float64
	proc, action string
}

// eventLog is a sim.Observer that keeps the raw event stream.
type eventLog []traceEvent

func (l *eventLog) Event(t float64, proc, action string) {
	*l = append(*l, traceEvent{t, proc, action})
}

func (l *eventLog) Span(sim.SpanEvent) {}

func TestLegacyTraceHookMatchesObserverEvents(t *testing.T) {
	var legacy []traceEvent
	var events eventLog
	cfg := smallLU()
	cfg.Observer = &events
	cfg.Trace = func(tm float64, proc, action string) {
		legacy = append(legacy, traceEvent{tm, proc, action})
	}
	if _, err := RunLU(cfg); err != nil {
		t.Fatal(err)
	}
	if len(legacy) == 0 {
		t.Fatal("legacy hook saw no events")
	}
	if len(legacy) != len(events) {
		t.Fatalf("legacy hook saw %d events, observer %d", len(legacy), len(events))
	}
	for i := range legacy {
		if legacy[i] != events[i] {
			t.Fatalf("event %d differs: hook %+v, observer %+v", i, legacy[i], events[i])
		}
	}
}

func TestObserverOffByDefault(t *testing.T) {
	// Without Telemetry or an Observer the engine must not pay for span
	// construction and the result must carry no summary.
	r, err := RunLU(smallLU())
	if err != nil {
		t.Fatal(err)
	}
	if r.Telemetry != nil {
		t.Fatal("telemetry attached without opting in")
	}
}

func TestRecorderSpansCarryPhases(t *testing.T) {
	rec := trace.NewRecorder()
	cfg := smallLU()
	cfg.Observer = rec
	if _, err := RunLU(cfg); err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	bytesOnWire := false
	for _, s := range rec.Spans() {
		phases[s.Phase] = true
		if s.Category == sim.CatNetwork && s.Bytes > 0 {
			bytesOnWire = true
		}
	}
	for _, want := range []string{"panel", "broadcast", "opmm", "opms", "scatter"} {
		if !phases[want] {
			t.Errorf("no span carried phase %q", want)
		}
	}
	if !bytesOnWire {
		t.Error("no network span carried payload bytes")
	}
}

// sameBits reports whether a and b are equal field by field, with
// floats compared by their bit patterns.
func sameBits(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return sameBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !sameBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !sameBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	default:
		return a.Equal(b)
	}
}

func TestTelemetryRecordsOnceIntoCallerRecorder(t *testing.T) {
	fw := FWConfig{N: 768, B: 64, PEs: 4, L1: -1, Mode: Hybrid, Telemetry: true}
	runs := []struct {
		name string
		run  func(obs sim.Observer) (*Result, error)
	}{
		{"lu", func(obs sim.Observer) (*Result, error) {
			cfg := smallLU()
			cfg.Telemetry, cfg.Observer = true, obs
			r, err := RunLU(cfg)
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}},
		{"fw", func(obs sim.Observer) (*Result, error) {
			cfg := fw
			cfg.Observer = obs
			r, err := RunFW(cfg)
			if err != nil {
				return nil, err
			}
			return &r.Result, nil
		}},
	}
	for _, tc := range runs {
		alone, err := tc.run(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder()
		withRec, err := tc.run(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(reflect.ValueOf(withRec.Telemetry), reflect.ValueOf(alone.Telemetry)) {
			t.Fatalf("%s: Summary with a caller recorder differs from the run without one", tc.name)
		}
		if n := len(rec.SpansView()); n != alone.Telemetry.Spans || n == 0 {
			t.Fatalf("%s: caller recorder holds %d spans, Summary.Spans = %d", tc.name, n, alone.Telemetry.Spans)
		}
		// The same recorder observing a second run yields that run's
		// Summary alone, not one over both runs' spans.
		again, err := tc.run(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !sameBits(reflect.ValueOf(again.Telemetry), reflect.ValueOf(alone.Telemetry)) {
			t.Fatalf("%s: Summary from a reused recorder covers more than its own run", tc.name)
		}
		if n := len(rec.SpansView()); n != 2*alone.Telemetry.Spans {
			t.Fatalf("%s: reused recorder holds %d spans, want both runs' %d", tc.name, n, 2*alone.Telemetry.Spans)
		}
	}
}
