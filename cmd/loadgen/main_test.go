package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"codesign/internal/obs"
	"codesign/internal/serve"
)

// dryRun executes run with -dry-run into a buffer.
func dryRun(t *testing.T, o options) []byte {
	t.Helper()
	o.DryRun = true
	o.Quiet = true
	o.Out = "-"
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDryRunDeterministic pins the harness's core property: the same
// seed and workload flags produce a byte-identical report.
func TestDryRunDeterministic(t *testing.T) {
	o := options{Requests: 500, Concurrency: 8, Mode: "closed", Dup: 0.8,
		Seed: 42, Apps: "lu,fw,mm", Method: "model"}
	a := dryRun(t, o)
	b := dryRun(t, o)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\n%s\n%s", a, b)
	}

	o.Seed = 43
	c := dryRun(t, o)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced identical reports")
	}

	var rep Report
	if err := json.Unmarshal(a, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Results != nil {
		t.Fatal("dry-run report must not contain measured results")
	}
	if rep.Workload.Requests != 500 || rep.Workload.DistinctKeys == 0 {
		t.Fatalf("workload = %+v", rep.Workload)
	}
	if rep.Workload.PlanDigest == "" {
		t.Fatal("missing plan digest")
	}
	// dup=0.8 over a 72-key universe: the plan must be duplicate-heavy.
	if rep.Workload.DupFractionActual < 0.5 {
		t.Fatalf("dup fraction actual = %v, want >= 0.5", rep.Workload.DupFractionActual)
	}
}

// TestUniverseIsFeasible asserts every query in the pool evaluates to
// a feasible outcome — a malformed pool would measure 400s, not the
// cache.
func TestUniverseIsFeasible(t *testing.T) {
	svc := serve.NewService(serve.Config{}, obs.NewRegistry())
	defer svc.Close()
	for _, c := range []struct {
		apps []string
		want int
	}{
		{[]string{"lu", "fw", "mm"}, 72},
		// chol takes lu's three axes, qr its pes and bf.
		{[]string{"chol", "qr"}, 60},
	} {
		uni, err := universe(c.apps, "model")
		if err != nil {
			t.Fatal(err)
		}
		if len(uni) != c.want {
			t.Fatalf("%v: universe has %d queries, want %d", c.apps, len(uni), c.want)
		}
		for _, q := range uni {
			resp, err := svc.Solve(context.Background(), q)
			if err != nil {
				t.Fatalf("query %+v: %v", q, err)
			}
			if !resp.Outcome.OK {
				t.Fatalf("query %s infeasible: %s", canonicalKey(q), resp.Outcome.Err)
			}
		}
	}
}

// TestUniverseRejectsApps checks that -apps names outside the app table
// fail with the table's names, and table apps without loadgen axes
// fail with loadgen's.
func TestUniverseRejectsApps(t *testing.T) {
	for app, want := range map[string]string{
		"foo":  "want one of lu, fw, mm, spmv, chol, qr, cg",
		"spmv": `app "spmv" has no loadgen axes (have lu, fw, mm, chol, qr)`,
		"cg":   `app "cg" has no loadgen axes`,
	} {
		_, err := universe([]string{"lu", app}, "model")
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("-apps lu,%s: err = %v, want it to contain %q", app, err, want)
		}
	}
}

// TestClosedLoopAgainstServer runs a real duplicate-heavy burst
// against an in-process codesignd and checks the report's
// acceptance-style properties: all 200s, majority cache hits.
func TestClosedLoopAgainstServer(t *testing.T) {
	srv := serve.New(serve.Config{}, obs.NewRegistry())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	o := options{
		URL: ts.URL, Requests: 400, Concurrency: 8, Mode: "closed",
		Dup: 0.8, Seed: 1, Apps: "lu,fw,mm", Method: "model",
		Quiet: true, Out: "-",
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	r := rep.Results
	if r == nil {
		t.Fatal("missing results")
	}
	if r.Sent != 400 || r.OK != 400 || r.TransportErrors != 0 {
		t.Fatalf("results = %+v, want 400 clean 200s", r)
	}
	if r.CacheHitRate <= 0.5 {
		t.Fatalf("cache hit rate = %v, want > 0.5 on a dup-heavy mix", r.CacheHitRate)
	}
	if r.Sources["cache"]+r.Sources["coalesced"]+r.Sources["computed"] != r.OK {
		t.Fatalf("sources %v don't add up to %d", r.Sources, r.OK)
	}
	if r.Latency.P99 < r.Latency.P50 || r.Latency.Max <= 0 {
		t.Fatalf("latency summary inconsistent: %+v", r.Latency)
	}
	if r.ThroughputRPS <= 0 {
		t.Fatalf("throughput = %v", r.ThroughputRPS)
	}
}

// TestOpenLoop drives a short open-loop run.
func TestOpenLoop(t *testing.T) {
	srv := serve.New(serve.Config{}, obs.NewRegistry())
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	o := options{
		URL: ts.URL, Requests: 50, Concurrency: 1, Mode: "open", Rate: 2000,
		Dup: 0.5, Seed: 3, Apps: "mm", Method: "model", Quiet: true, Out: "-",
	}
	var buf bytes.Buffer
	if err := run(o, &buf); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Config.RateRPS != 2000 {
		t.Fatalf("config rate = %v", rep.Config.RateRPS)
	}
	if rep.Results == nil || rep.Results.OK != 50 {
		t.Fatalf("results = %+v", rep.Results)
	}
}

// TestFlagValidation covers the refusal paths.
func TestFlagValidation(t *testing.T) {
	cases := []options{
		{Requests: 0, Concurrency: 1, Mode: "closed", Apps: "lu"},
		{Requests: 1, Concurrency: 0, Mode: "closed", Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "closed", Dup: 1.5, Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "sideways", Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "open", Rate: 0, Apps: "lu"},
		{Requests: 1, Concurrency: 1, Mode: "closed", Apps: ""},
		{Requests: 1, Concurrency: 1, Mode: "closed", Apps: "cholesky"},
	}
	for i, o := range cases {
		o.DryRun = true
		o.Quiet = true
		var buf bytes.Buffer
		if err := run(o, &buf); err == nil {
			t.Errorf("case %d: expected an error", i)
		}
	}
}
