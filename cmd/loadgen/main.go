// Command loadgen is a deterministic load generator for codesignd: it
// synthesizes a seeded, duplicate-heavy stream of /v1/solve queries,
// drives them closed-loop (fixed concurrency) or open-loop (fixed
// arrival rate), and reports latency percentiles, throughput, error
// and shed rates, and the observed cache hit rate as stable JSON.
//
// Usage:
//
//	loadgen -url http://127.0.0.1:8080 -requests 10000 -dup 0.8
//	loadgen -mode open -rate 500 -requests 5000
//	loadgen -seed 7 -dry-run                  # print the workload plan only
//
// The workload is a pure function of -seed and the workload flags:
// the same seed always produces the same query sequence (the report's
// plan_digest proves it), so measurements are comparable across runs
// and machines. With -dry-run the report contains only the
// deterministic sections and is byte-identical for identical flags —
// the property the repo's tests pin. Measured sections (latency,
// throughput) naturally vary run to run.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"codesign/internal/cli"
	"codesign/internal/core"
	"codesign/internal/serve"
	"codesign/internal/sweep"
)

func main() {
	var o options
	flag.StringVar(&o.URL, "url", "http://127.0.0.1:8080", "codesignd base `url`")
	flag.IntVar(&o.Requests, "requests", 1000, "total solve queries to issue")
	flag.IntVar(&o.Concurrency, "concurrency", 8, "closed-loop worker count")
	flag.StringVar(&o.Mode, "mode", "closed", "load model: closed (fixed concurrency) or open (fixed arrival rate)")
	flag.Float64Var(&o.Rate, "rate", 200, "open-loop arrival rate in requests/second")
	flag.Float64Var(&o.Dup, "dup", 0.8, "fraction of queries drawn from already-issued ones (0..1)")
	flag.Int64Var(&o.Seed, "seed", 1, "workload RNG seed; same seed = same query sequence")
	flag.StringVar(&o.Apps, "apps", "lu,fw,mm", "comma list of applications to query")
	flag.StringVar(&o.Method, "method", sweep.MethodModel, "evaluation method for every query: model or sim")
	flag.IntVar(&o.TimeoutMS, "timeout-ms", 0, "per-request server deadline in ms (0 = server default)")
	flag.StringVar(&o.Out, "out", "-", "write the JSON report to `file` (\"-\" = stdout)")
	flag.BoolVar(&o.DryRun, "dry-run", false, "emit the deterministic workload plan without sending anything")
	flag.BoolVar(&o.Quiet, "q", false, "quiet: log errors only")
	flag.BoolVar(&o.Verbose, "v", false, "verbose: also log debug detail")
	flag.Parse()

	o.Log = cli.NewLogger("loadgen", os.Stderr)
	if err := run(o, os.Stdout); err != nil {
		o.Log.Errorf("%v", err)
		os.Exit(1)
	}
}

// options bundles every CLI knob run needs; tests construct it
// directly.
type options struct {
	URL         string
	Requests    int
	Concurrency int
	Mode        string
	Rate        float64
	Dup         float64
	Seed        int64
	Apps        string
	Method      string
	TimeoutMS   int
	Out         string
	DryRun      bool
	Quiet       bool
	Verbose     bool
	Log         *cli.Logger
}

// Report is loadgen's JSON output. Config and Workload are pure
// functions of the flags (byte-identical across runs for the same
// flags; -dry-run stops there); Results carries the measurements.
type Report struct {
	// Config echoes the workload-defining flags.
	Config ReportConfig `json:"config"`
	// Workload describes the deterministic query plan.
	Workload ReportWorkload `json:"workload"`
	// Results carries the measurements (absent under -dry-run).
	Results *ReportResults `json:"results,omitempty"`
}

// ReportConfig echoes the flags that define the workload.
type ReportConfig struct {
	// Mode is "closed" or "open".
	Mode string `json:"mode"`
	// Requests is the total query count.
	Requests int `json:"requests"`
	// Concurrency is the closed-loop worker count.
	Concurrency int `json:"concurrency"`
	// RateRPS is the open-loop arrival rate (0 under closed).
	RateRPS float64 `json:"rate_rps,omitempty"`
	// DupFraction is the target duplicate fraction.
	DupFraction float64 `json:"dup_fraction"`
	// Seed is the workload RNG seed.
	Seed int64 `json:"seed"`
	// Apps are the applications queried.
	Apps []string `json:"apps"`
	// Method is the evaluation method of every query.
	Method string `json:"method"`
	// TimeoutMS is the per-request server deadline (0 = server
	// default).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// ReportWorkload summarizes the deterministic query plan.
type ReportWorkload struct {
	// Requests is the planned query count.
	Requests int `json:"requests"`
	// DistinctKeys counts unique canonical queries in the plan — the
	// ceiling on cache misses a warm server can see.
	DistinctKeys int `json:"distinct_keys"`
	// DupFractionActual is 1 - distinct/requests: the duplicate
	// fraction the plan actually realizes (target draws plus
	// accidental fresh-draw collisions).
	DupFractionActual float64 `json:"dup_fraction_actual"`
	// PerApp counts queries per application, keyed by app name.
	PerApp map[string]int `json:"per_app"`
	// PlanDigest is the FNV-1a/64 digest of the canonical query
	// sequence: equal digests = identical workloads.
	PlanDigest string `json:"plan_digest"`
}

// ReportResults carries the measured outcome of a run.
type ReportResults struct {
	// Sent is the number of requests issued.
	Sent int `json:"sent"`
	// OK counts HTTP 200 responses.
	OK int `json:"ok"`
	// StatusCounts counts responses by HTTP status code.
	StatusCounts map[string]int `json:"status_counts"`
	// TransportErrors counts requests that failed before a status
	// (connection refused, client timeout).
	TransportErrors int `json:"transport_errors,omitempty"`
	// Sources counts 200 responses by solve source ("cache",
	// "coalesced", "computed").
	Sources map[string]int `json:"sources"`
	// CacheHitRate is (cache + coalesced) / OK: the fraction of
	// successful queries that reused an evaluation.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// ShedRate is 429s / sent.
	ShedRate float64 `json:"shed_rate"`
	// ErrorRate is (non-200 + transport errors) / sent.
	ErrorRate float64 `json:"error_rate"`
	// ElapsedSeconds is the wall-clock duration of the run.
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	// ThroughputRPS is sent / elapsed.
	ThroughputRPS float64 `json:"throughput_rps"`
	// Latency summarizes per-request latency in seconds (exact
	// percentiles over all issued requests).
	Latency LatencySummary `json:"latency_seconds"`
}

// LatencySummary holds exact nearest-rank percentiles over the
// recorded per-request latencies.
type LatencySummary struct {
	// P50 is the median latency in seconds.
	P50 float64 `json:"p50"`
	// P90 is the 90th percentile.
	P90 float64 `json:"p90"`
	// P99 is the 99th percentile.
	P99 float64 `json:"p99"`
	// Mean is the arithmetic mean.
	Mean float64 `json:"mean"`
	// Max is the slowest request.
	Max float64 `json:"max"`
}

// plannedQuery is one entry of the deterministic workload.
type plannedQuery struct {
	req serve.SolveRequest
	key string
}

func run(o options, stdout io.Writer) error {
	log := o.Log
	if log == nil {
		log = cli.NewLogger("loadgen", os.Stderr)
	}
	switch {
	case o.Quiet:
		log.SetLevel(slog.LevelError)
	case o.Verbose:
		log.SetLevel(slog.LevelDebug)
	}
	if o.Requests < 1 {
		return fmt.Errorf("-requests must be >= 1, got %d", o.Requests)
	}
	if o.Concurrency < 1 {
		return fmt.Errorf("-concurrency must be >= 1, got %d", o.Concurrency)
	}
	if o.Dup < 0 || o.Dup > 1 {
		return fmt.Errorf("-dup must be in [0,1], got %v", o.Dup)
	}
	if o.Mode != "closed" && o.Mode != "open" {
		return fmt.Errorf("-mode must be closed or open, got %q", o.Mode)
	}
	if o.Mode == "open" && o.Rate <= 0 {
		return fmt.Errorf("-rate must be > 0 under -mode open, got %v", o.Rate)
	}
	apps := splitList(o.Apps)
	if len(apps) == 0 {
		return fmt.Errorf("-apps selects nothing")
	}
	uni, err := universe(apps, o.Method)
	if err != nil {
		return err
	}

	plan := buildPlan(o, uni)
	report := Report{Config: reportConfig(o, apps), Workload: summarize(plan, apps)}
	log.Infof("plan: %d queries, %d distinct keys, digest %s",
		report.Workload.Requests, report.Workload.DistinctKeys, report.Workload.PlanDigest)

	if !o.DryRun {
		results, err := execute(o, log, plan)
		if err != nil {
			return err
		}
		report.Results = results
		log.Infof("done: %d sent, %.1f%% hit rate, p50 %.3gs p99 %.3gs, %.0f req/s",
			results.Sent, 100*results.CacheHitRate,
			results.Latency.P50, results.Latency.P99, results.ThroughputRPS)
	}

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if o.Out == "-" || o.Out == "" {
		_, err := stdout.Write(buf.Bytes())
		return err
	}
	return os.WriteFile(o.Out, buf.Bytes(), 0o644)
}

// loadAxes is one app's query axes at its table size. The universe
// nests pes → bf → l; a nil axis leaves its field unset.
type loadAxes struct {
	app        string
	pes, bf, l []int
}

// lu, chol and qr share one table size, n=30000 and b=3000, so
// pes | 3000 and bf <= 3000.
var (
	blockPEs = []int{2, 4, 8}
	blockBF  = []int{-1, 0, 600, 1280}
	blockL   = []int{-1, 1, 2, 3}
)

// axesTable lists the apps loadgen can query.
var axesTable = []loadAxes{
	{app: "lu", pes: blockPEs, bf: blockBF, l: blockL},
	// n=18432, b=256: pes | 256; l is fw's per-phase op share l1.
	{app: "fw", pes: []int{2, 4, 8}, l: []int{-1, 1, 2, 4}},
	// n=6144: pes | 6144, bf <= 6144.
	{app: "mm", pes: []int{2, 4, 8}, bf: []int{-1, 0, 1024, 3072}},
	{app: "chol", pes: blockPEs, bf: blockBF, l: blockL},
	// qr has no panel pipeline depth.
	{app: "qr", pes: blockPEs, bf: blockBF},
}

// universe enumerates the feasible query pool per app: every
// combination resolves to a valid point at the app's paper-default
// sizes, so a well-formed run never manufactures 400s.
func universe(apps []string, method string) ([]serve.SolveRequest, error) {
	var out []serve.SolveRequest
	for _, app := range apps {
		if _, err := core.LookupApp(app); err != nil {
			return nil, err
		}
		i := slices.IndexFunc(axesTable, func(a loadAxes) bool { return a.app == app })
		if i < 0 {
			var have []string
			for _, a := range axesTable {
				have = append(have, a.app)
			}
			return nil, fmt.Errorf("app %q has no loadgen axes (have %s)", app, strings.Join(have, ", "))
		}
		ax := axesTable[i]
		for _, pes := range ax.pes {
			for _, bf := range axis(ax.bf) {
				for _, l := range axis(ax.l) {
					out = append(out, serve.SolveRequest{App: app, PEs: pes, BF: bf, L: l, Method: method})
				}
			}
		}
	}
	return out, nil
}

// axis returns an axis's values as request fields: one unset (nil)
// field for a nil axis.
func axis(vs []int) []*int {
	if vs == nil {
		return []*int{nil}
	}
	out := make([]*int, len(vs))
	for i, v := range vs {
		out[i] = &v
	}
	return out
}

// canonicalKey renders a query in the solve cache's canonical field
// order, for duplicate accounting and the plan digest.
func canonicalKey(q serve.SolveRequest) string {
	deref := func(p *int) int {
		if p == nil {
			return -1
		}
		return *p
	}
	return fmt.Sprintf("%s|%s|%d|%d|%d", q.App, q.Method, q.PEs, deref(q.BF), deref(q.L))
}

// buildPlan synthesizes the deterministic query sequence: with
// probability -dup a query repeats an already-issued one (uniformly
// over history), otherwise it draws fresh from the universe. Both
// draws come from one seeded source, so the plan is a pure function
// of the flags.
func buildPlan(o options, uni []serve.SolveRequest) []plannedQuery {
	rng := rand.New(rand.NewSource(o.Seed))
	plan := make([]plannedQuery, 0, o.Requests)
	for i := 0; i < o.Requests; i++ {
		var q serve.SolveRequest
		if i > 0 && rng.Float64() < o.Dup {
			q = plan[rng.Intn(len(plan))].req
		} else {
			q = uni[rng.Intn(len(uni))]
		}
		plan = append(plan, plannedQuery{req: q, key: canonicalKey(q)})
	}
	return plan
}

// summarize reduces a plan to its deterministic report section.
func summarize(plan []plannedQuery, apps []string) ReportWorkload {
	distinct := make(map[string]struct{})
	perApp := make(map[string]int, len(apps))
	for _, app := range apps {
		perApp[app] = 0
	}
	h := fnv.New64a()
	for _, pq := range plan {
		distinct[pq.key] = struct{}{}
		perApp[pq.req.App]++
		io.WriteString(h, pq.key)
		h.Write([]byte{'\n'})
	}
	return ReportWorkload{
		Requests:          len(plan),
		DistinctKeys:      len(distinct),
		DupFractionActual: 1 - float64(len(distinct))/float64(len(plan)),
		PerApp:            perApp,
		PlanDigest:        fmt.Sprintf("fnv1a:%016x", h.Sum64()),
	}
}

// reportConfig echoes the workload flags.
func reportConfig(o options, apps []string) ReportConfig {
	c := ReportConfig{
		Mode: o.Mode, Requests: o.Requests, Concurrency: o.Concurrency,
		DupFraction: o.Dup, Seed: o.Seed, Apps: apps, Method: o.Method,
		TimeoutMS: o.TimeoutMS,
	}
	if o.Mode == "open" {
		c.RateRPS = o.Rate
	}
	return c
}

// sample is one request's measurement.
type sample struct {
	status  int // 0 = transport error
	source  string
	latency time.Duration
}

// execute drives the plan against the server and reduces the samples.
func execute(o options, log *cli.Logger, plan []plannedQuery) (*ReportResults, error) {
	base := strings.TrimSuffix(o.URL, "/")
	path := base + "/v1/solve"
	if o.TimeoutMS > 0 {
		path = fmt.Sprintf("%s?timeout_ms=%d", path, o.TimeoutMS)
	}
	client := &http.Client{Transport: &http.Transport{
		MaxIdleConns:        o.Concurrency * 2,
		MaxIdleConnsPerHost: o.Concurrency * 2,
	}}
	// Client-side safety timeout well above any server deadline, so a
	// wedged server cannot hang the harness.
	if o.TimeoutMS > 0 {
		client.Timeout = time.Duration(o.TimeoutMS)*time.Millisecond + 10*time.Second
	}

	// Pre-marshal the bodies; the measured window should time the
	// server, not encoding/json.
	bodies := make([][]byte, len(plan))
	for i, pq := range plan {
		b, err := json.Marshal(pq.req)
		if err != nil {
			return nil, err
		}
		bodies[i] = b
	}

	samples := make([]sample, len(plan))
	issue := func(i int) {
		start := time.Now()
		resp, err := client.Post(path, "application/json", bytes.NewReader(bodies[i]))
		if err != nil {
			samples[i] = sample{status: 0, latency: time.Since(start)}
			return
		}
		var sr serve.SolveResponse
		dec := json.NewDecoder(resp.Body)
		decErr := dec.Decode(&sr)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		s := sample{status: resp.StatusCode, latency: time.Since(start)}
		if resp.StatusCode == http.StatusOK && decErr == nil {
			s.source = sr.Source
		}
		samples[i] = s
	}

	log.Infof("issuing %d queries (%s loop) against %s", len(plan), o.Mode, base)
	start := time.Now()
	var wg sync.WaitGroup
	if o.Mode == "closed" {
		next := make(chan int)
		for w := 0; w < o.Concurrency; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range next {
					issue(i)
				}
			}()
		}
		for i := range plan {
			next <- i
		}
		close(next)
	} else {
		interval := time.Duration(float64(time.Second) / o.Rate)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for i := range plan {
			if i > 0 {
				<-ticker.C
			}
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				issue(i)
			}(i)
		}
	}
	wg.Wait()
	elapsed := time.Since(start)

	return reduce(samples, elapsed), nil
}

// reduce aggregates samples into the measured report section.
func reduce(samples []sample, elapsed time.Duration) *ReportResults {
	res := &ReportResults{
		Sent:         len(samples),
		StatusCounts: make(map[string]int),
		Sources:      map[string]int{"cache": 0, "coalesced": 0, "computed": 0},
	}
	lat := make([]float64, 0, len(samples))
	var sum float64
	for _, s := range samples {
		v := s.latency.Seconds()
		lat = append(lat, v)
		sum += v
		if s.status == 0 {
			res.TransportErrors++
			continue
		}
		res.StatusCounts[fmt.Sprintf("%d", s.status)]++
		if s.status == http.StatusOK {
			res.OK++
			if s.source != "" {
				res.Sources[s.source]++
			}
		}
	}
	sort.Float64s(lat)
	pct := func(p float64) float64 {
		if len(lat) == 0 {
			return 0
		}
		i := int(p*float64(len(lat))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	res.Latency = LatencySummary{
		P50: pct(0.50), P90: pct(0.90), P99: pct(0.99),
		Mean: sum / float64(len(lat)), Max: lat[len(lat)-1],
	}
	if res.OK > 0 {
		res.CacheHitRate = float64(res.Sources["cache"]+res.Sources["coalesced"]) / float64(res.OK)
	}
	res.ShedRate = float64(res.StatusCounts["429"]) / float64(res.Sent)
	res.ErrorRate = float64(res.Sent-res.OK) / float64(res.Sent)
	res.ElapsedSeconds = elapsed.Seconds()
	res.ThroughputRPS = float64(res.Sent) / elapsed.Seconds()
	return res
}

// splitList splits a comma list, trimming blanks.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}
