package serve

import (
	"fmt"
	"sync"
	"time"

	"codesign/internal/obs"
)

// Metric family help strings, shared with OPERATIONS.md's dictionary.
const (
	helpRequests = "API requests by endpoint and HTTP status code"
	helpLatency  = "API request latency in seconds by endpoint, including queueing"
)

// latencyBuckets spans 10us..84s exponentially — model solves sit in
// the lowest decades, sim solves and design sweeps in the highest.
func latencyBuckets() []float64 { return obs.ExpBuckets(1e-5, 2, 24) }

// metrics holds the serve layer's instrument handles. Families that
// mirror live state (cache size, hit rate, queue depth) register as
// obs.Func gauges reading the source of truth at scrape time, so
// nothing here needs updating on those paths.
type metrics struct {
	reg            *obs.Registry
	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheCoalesced *obs.Counter
	shed           *obs.Counter
	deadline       *obs.Counter
	jobsSubmitted  *obs.Counter
	latency        map[string]*obs.Histogram

	// requests caches the per-(endpoint, code) request counters,
	// registered on first use so /metrics never shows a zero series
	// for a code that was never returned.
	reqMu    sync.Mutex
	requests map[requestKey]*obs.Counter
}

// requestKey labels one codesignd_requests_total series.
type requestKey struct {
	endpoint string
	code     int
}

// newMetrics registers the service-level families on reg.
func newMetrics(reg *obs.Registry, s *Service) *metrics {
	m := &metrics{
		reg:            reg,
		cacheHits:      reg.Counter("codesignd_solve_cache_hits_total", "solve requests answered from the LRU cache"),
		cacheMisses:    reg.Counter("codesignd_solve_cache_misses_total", "solve requests that ran an evaluation"),
		cacheCoalesced: reg.Counter("codesignd_solve_cache_coalesced_total", "solve requests that shared a concurrent identical evaluation"),
		shed:           reg.Counter("codesignd_shed_total", "requests shed with 429 by admission control"),
		deadline:       reg.Counter("codesignd_deadline_total", "requests that exceeded their deadline (504)"),
		jobsSubmitted:  reg.Counter("codesignd_sweep_jobs_submitted_total", "sweep jobs accepted by POST /v1/sweep"),
		latency:        make(map[string]*obs.Histogram),
		requests:       make(map[requestKey]*obs.Counter),
	}
	for _, ep := range []string{"solve", "design", "sweep", "sweep_status"} {
		m.latency[ep] = reg.Histogram(
			fmt.Sprintf("codesignd_request_seconds{endpoint=%q}", ep), helpLatency, latencyBuckets())
	}
	reg.Func("codesignd_solve_cache_entries", "solve cache resident entries",
		func() float64 { return float64(s.solves.Len()) })
	reg.Func("codesignd_solve_cache_evictions", "solve cache LRU evictions since start",
		func() float64 { return float64(s.solves.Stats().Evictions) })
	reg.Func("codesignd_solve_cache_hit_rate", "solve cache hits / lookups since start",
		func() float64 { return s.solves.Stats().HitRate() })
	reg.Func("codesignd_memo_place_hit_rate", "shared evaluator place-and-route memo hit rate",
		func() float64 { return memoRate(s.eval.Stats().PlaceLookups, s.eval.Stats().PlaceSolves) })
	reg.Func("codesignd_memo_partition_hit_rate", "shared evaluator partition-solve memo hit rate",
		func() float64 { return memoRate(s.eval.Stats().PartitionLookups, s.eval.Stats().PartitionSolves) })
	reg.Func("codesignd_sweep_jobs_running", "sweep jobs currently evaluating",
		func() float64 {
			s.jobs.mu.Lock()
			defer s.jobs.mu.Unlock()
			return float64(s.jobs.running)
		})
	return m
}

// memoRate turns (lookups, solves) memo counters into a hit rate.
func memoRate(lookups, solves int) float64 {
	if lookups == 0 {
		return 0
	}
	return float64(lookups-solves) / float64(lookups)
}

// request records one finished API request: the per-endpoint/status
// counter and the per-endpoint latency histogram.
func (m *metrics) request(endpoint string, code int, elapsed time.Duration) {
	m.requestCounter(endpoint, code).Inc()
	if h, ok := m.latency[endpoint]; ok {
		h.Observe(elapsed.Seconds())
	}
}

// requestCounter returns the codesignd_requests_total series for
// (endpoint, code), registering it on first use.
func (m *metrics) requestCounter(endpoint string, code int) *obs.Counter {
	k := requestKey{endpoint, code}
	m.reqMu.Lock()
	defer m.reqMu.Unlock()
	c, ok := m.requests[k]
	if !ok {
		c = m.reg.Counter(fmt.Sprintf("codesignd_requests_total{endpoint=%q,code=\"%d\"}", endpoint, code), helpRequests)
		m.requests[k] = c
	}
	return c
}
