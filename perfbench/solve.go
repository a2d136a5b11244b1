package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"codesign/internal/obs"
	"codesign/internal/serve"
	"codesign/internal/sim"
	"codesign/internal/sweep"
)

// solve-mix plan shape: planRequests queries per pass, of which the
// simPool queries sit at seeded positions; of the rest a freshShare is
// drawn from the model universe and the others repeat an earlier query
// of the plan.
const (
	planRequests = 4000
	freshShare   = 0.04
)

// warmSolves is how many direct Service.Solve calls time a warm key.
const warmSolves = 1000

// Request headers the traced run uses to join a handler span to the
// client span of the same request.
const (
	hdrReq  = "X-Perfbench-Req"
	hdrSpan = "X-Perfbench-Span"
)

// query is one planned /v1/solve request.
type query struct {
	req    serve.SolveRequest
	point  sweep.Point
	method string
	key    string
	body   []byte
}

func newQuery(p sweep.Point, method string) query {
	bf, l := p.BF, p.L
	req := serve.SolveRequest{App: p.App, Machine: p.Machine, Mode: p.Mode, N: p.N, Density: p.Density,
		B: p.B, PEs: p.PEs, BF: &bf, L: &l, Method: method}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err) // a SolveRequest is plain data; Marshal cannot fail
	}
	return query{req: req, point: p, method: method, key: fmt.Sprintf("%s|%+v", method, p), body: body}
}

// pt builds a hybrid XD1 point.
func pt(app string, n, b, pes, bf, l int, density float64, mode string) sweep.Point {
	return sweep.Point{App: app, Machine: "xd1", Mode: mode, N: n, B: b, PEs: pes, BF: bf, L: l, Density: density}
}

// modelUniverse is the pool of model-method queries: every app at its
// paper size across PE counts, row splits and pipeline depths.
func modelUniverse() []query {
	var out []query
	for _, pes := range []int{2, 4, 8} {
		for _, bf := range []int{-1, 0, 600, 1280} {
			for _, l := range []int{-1, 1, 2, 3} {
				out = append(out, newQuery(pt("lu", 0, 0, pes, bf, l, 0, "hybrid"), sweep.MethodModel))
			}
		}
		for _, l := range []int{-1, 1, 2, 4} {
			out = append(out, newQuery(pt("fw", 0, 0, pes, -1, l, 0, "hybrid"), sweep.MethodModel))
		}
		for _, bf := range []int{-1, 0, 1024, 3072} {
			out = append(out, newQuery(pt("mm", 0, 0, pes, bf, -1, 0, "hybrid"), sweep.MethodModel))
		}
	}
	// The MV array fits the device only up to 4 PEs at spmv's default
	// size; 0 asks for the largest that fits.
	for _, pes := range []int{0, 2, 4} {
		for _, d := range []float64{0, 0.001, 0.01, 0.05} {
			for _, mode := range sliceModes {
				out = append(out, newQuery(pt("spmv", 0, 0, pes, -1, -1, d, mode), sweep.MethodModel))
			}
		}
	}
	return out
}

// simPool is the set of sim-method queries every plan sends once each,
// at seeded positions: reduced-size mm and CSR spmv designs that
// simulate in milliseconds. Every seed's plan holds the same set, so the
// simulation work of a pass does not depend on the seed. Dense spmv
// operands stay out: each allocates n*n words at once, and where those
// spikes fell against the collector's cycles moved the peak resident
// set by a fifth from seed to seed.
func simPool() []query {
	var out []query
	for _, n := range []int{480, 600, 720, 840, 960} {
		for _, pes := range []int{2, 4, 8} {
			for _, bf := range []int{-1, 0, 120, 240, 360, 440} {
				out = append(out, newQuery(pt("mm", n, 0, pes, bf, -1, 0, "hybrid"), sweep.MethodSim))
			}
		}
	}
	for _, n := range []int{512, 768, 1024} {
		for _, d := range []float64{0.005, 0.01, 0.02, 0.04, 0.08} {
			for _, mode := range []string{"hybrid", "fpga-only"} {
				out = append(out, newQuery(pt("spmv", n, 0, 0, -1, -1, d, mode), sweep.MethodSim))
			}
		}
	}
	return out
}

// buildPlan draws the seeded, duplicate-heavy query sequence of one
// pass. Each sim query appears once, so it misses the empty cache.
func buildPlan(seed int64) []query {
	rng := rand.New(rand.NewSource(seed))
	model, sims := modelUniverse(), simPool()
	rng.Shuffle(len(sims), func(i, j int) { sims[i], sims[j] = sims[j], sims[i] })
	isSim := make(map[int]bool, len(sims))
	for _, i := range rng.Perm(planRequests)[:len(sims)] {
		isSim[i] = true
	}
	plan := make([]query, 0, planRequests)
	for i := 0; i < planRequests; i++ {
		switch {
		case isSim[i]:
			plan = append(plan, sims[0])
			sims = sims[1:]
		case rng.Float64() < freshShare || len(plan) == 0:
			plan = append(plan, model[rng.Intn(len(model))])
		default:
			plan = append(plan, plan[rng.Intn(len(plan))])
		}
	}
	return plan
}

// planDigest digests the request bodies in plan order.
func planDigest(plan []query) string {
	parts := make([][]byte, len(plan))
	for i, q := range plan {
		parts[i] = q.body
	}
	return digest(parts...)
}

// solveServer is one codesignd server on a loopback listener.
type solveServer struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startServer(wrap func(http.Handler) http.Handler) (*solveServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("solve-mix: listening: %w", err)
	}
	srv := serve.New(serve.Config{}, obs.NewRegistry())
	h := srv.Handler()
	if wrap != nil {
		h = wrap(h)
	}
	s := &solveServer{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + "/v1/solve",
		done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the server and waits for its serve loop to end.
func (s *solveServer) stop() error {
	err := s.hs.Close()
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	s.srv.Close()
	return err
}

// solveClients is the closed loop's client count. With one client per
// CPU (two here) the run-to-run spread of wall_s reached 6-25% across
// sets of five seeds, the same cross-CPU wake-up bistability as
// sweepWorkers; one client holds it near 4%. With one client no two
// requests are in flight together, so single-flight never coalesces.
const solveClients = 1

// solveBench drives an in-process codesignd with a closed loop of
// keep-alive clients. Every pass starts a new server, so the cache
// starts empty.
type solveBench struct {
	plan   []query
	client *http.Client
	server *solveServer
	// seen holds each planned key's query, out the outcome the server
	// answered for it, and refs the direct evaluation out must equal.
	seen map[string]query
	out  map[string]sweep.Outcome
	refs map[string]sweep.Outcome
}

func openSolve(o options) (bench, error) {
	s := &solveBench{plan: buildPlan(o.seed),
		seen: map[string]query{}, out: map[string]sweep.Outcome{}, refs: map[string]sweep.Outcome{}}
	s.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: solveClients, MaxConnsPerHost: solveClients,
		DisableCompression: true}}
	var err error
	if s.server, err = startServer(nil); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *solveBench) describe(w io.Writer) {
	distinct := map[string]bool{}
	sims := 0
	for _, q := range s.plan {
		if !distinct[q.key] && q.method == sweep.MethodSim {
			sims++
		}
		distinct[q.key] = true
	}
	fmt.Fprintf(w, "inputs: solve-mix plan %d requests, %d distinct keys, %d first-seen sim, digest %s; closed loop, keep-alive clients %d\n",
		len(s.plan), len(distinct), sims, planDigest(s.plan), solveClients)
}

// sample is one request's measurement.
type sample struct {
	rtt     time.Duration
	status  int
	source  string
	spanID  int64
	handler atomic.Int64
}

func (s *solveBench) pass(pr *probe) (passStats, error) {
	var st passStats
	samples := make([]sample, len(s.plan))
	var tr *tracer
	id := "solve-mix"
	if pr != nil {
		tr, id = pr.tr, fmt.Sprintf("solve-mix-%d", pr.pass)
	}
	if err := s.restart(tr, id, samples); err != nil {
		return st, err
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	outs := make([]map[string]sweep.Outcome, solveClients)
	bad := make([]int, solveClients)
	passID := tr.id()
	if pr != nil {
		sim.InstallCounters(pr.ctr)
	}
	start := time.Now()
	for c := 0; c < solveClients; c++ {
		outs[c] = make(map[string]sweep.Outcome)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.plan) {
					return
				}
				if !s.do(i, &samples[i], tr, passID, id, outs[c]) {
					bad[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	end := time.Now()
	sim.InstallCounters(nil)
	tr.record(passID, 0, "pass", id, start, end)
	st.wall = end.Sub(start)

	for c := range outs {
		st.failed += bad[c]
		for k, o := range outs[c] {
			if prev, ok := s.out[k]; ok && prev != o {
				st.failed++
				fmt.Fprintf(os.Stderr, "perfbench: solve-mix %s answered %+v and %+v\n", k, prev, o)
			}
			s.out[k] = o
		}
	}
	for _, q := range s.plan {
		s.seen[q.key] = q
	}
	st.attempted = len(s.plan)
	for i := range samples {
		if samples[i].status != 0 {
			st.ops++
			st.latMS = append(st.latMS, ms(samples[i].rtt))
		}
	}
	if pr != nil {
		s.ledger(pr, id, samples)
	}
	return st, nil
}

// restart replaces the server with a fresh one, wrapping its handler
// with a timer when the pass is traced.
func (s *solveBench) restart(tr *tracer, id string, samples []sample) error {
	if err := s.server.stop(); err != nil {
		return fmt.Errorf("solve-mix: stopping server: %w", err)
	}
	s.client.CloseIdleConnections()
	var wrap func(http.Handler) http.Handler
	if tr != nil {
		wrap = func(h http.Handler) http.Handler {
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				i, _ := strconv.Atoi(r.Header.Get(hdrReq))
				parent, _ := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
				start := time.Now()
				h.ServeHTTP(w, r)
				end := time.Now()
				if i >= 0 && i < len(samples) {
					samples[i].handler.Store(int64(end.Sub(start)))
				}
				tr.record(tr.id(), parent, "serve.Handler", fmt.Sprintf("%s/req/%d", id, i), start, end)
			})
		}
	}
	var err error
	s.server, err = startServer(wrap)
	return err
}

// do sends plan request i and checks the answer: status 200, the
// planned point echoed, and the same outcome as every earlier answer
// for its key on this client. It reports whether the request passed.
func (s *solveBench) do(i int, sm *sample, tr *tracer, passID int64, id string, outs map[string]sweep.Outcome) bool {
	q := &s.plan[i]
	req, err := http.NewRequest(http.MethodPost, s.server.url, bytes.NewReader(q.body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix request %d: %v\n", i, err)
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		sm.spanID = tr.id()
		req.Header.Set(hdrReq, strconv.Itoa(i))
		req.Header.Set(hdrSpan, strconv.FormatInt(sm.spanID, 10))
	}
	start := time.Now()
	resp, err := s.client.Do(req)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	end := time.Now()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix request %d: %v\n", i, err)
		return false
	}
	sm.rtt, sm.status = end.Sub(start), resp.StatusCode
	tr.record(sm.spanID, passID, "http.POST /v1/solve", fmt.Sprintf("%s/req/%d", id, i), start, end)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix request %d: status %d: %s\n", i, resp.StatusCode, body)
		return false
	}
	var sr serve.SolveResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix request %d: %v\n", i, err)
		return false
	}
	sm.source = sr.Source
	if sr.Point != q.point {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix request %d echoed %+v, sent %+v\n", i, sr.Point, q.point)
		return false
	}
	if prev, ok := outs[q.key]; ok && prev != sr.Outcome {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix %s answered %+v and %+v\n", q.key, prev, sr.Outcome)
		return false
	}
	outs[q.key] = sr.Outcome
	return true
}

// ledger adds the traced pass's serve, cache and sweep numbers, then
// replays the pass's distinct keys through a direct Evaluator.Evaluate.
func (s *solveBench) ledger(pr *probe, id string, samples []sample) {
	led := pr.led
	var rtt, handler, transport []float64
	var ok, shed, hits, coalesced, computed float64
	for i := range samples {
		sm := &samples[i]
		switch sm.status {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		}
		h := time.Duration(sm.handler.Load())
		switch sm.source {
		case "cache":
			hits++
			rtt = append(rtt, float64(sm.rtt)/1e3)
			handler = append(handler, float64(h)/1e3)
			transport = append(transport, float64(sm.rtt-h)/1e3)
		case "coalesced":
			coalesced++
		case "computed":
			computed++
			if s.plan[i].method == sweep.MethodSim {
				pr.hostNS += int64(h)
			}
		}
	}
	led.add("serve.rtt_hit_p50_us", median(rtt))
	led.add("serve.handler_hit_p50_us", median(handler))
	led.add("serve.transport_hit_p50_us", median(transport))
	led.add("serve.shed_ratio", ratio(shed, float64(len(samples))))
	led.add("cache.hit_ratio", ratio(hits, ok))
	led.add("cache.coalesced_ratio", ratio(coalesced, ok))
	led.add("cache.computed", computed)
	svc := s.server.srv.Service()
	led.add("cache.evictions", float64(svc.CacheStats().Evictions))
	stats := svc.Evaluator().Stats()
	led.add("sweep.place_hit_ratio", stats.PlaceHitRate())
	led.add("sweep.partition_hit_ratio", stats.PartitionHitRate())
	led.add("sweep.resolve_hit_ratio", ratio(float64(stats.ResolveLookups-stats.ResolveSolves), float64(stats.ResolveLookups)))

	// A direct Service.Solve on a key the pass left warm.
	warm := s.plan[0].req
	ctx := context.Background()
	hit := make([]float64, 0, warmSolves)
	for i := 0; i < warmSolves; i++ {
		d := pr.tr.span(0, "serve.Service.Solve", id+"/warm", func(int64) { svc.Solve(ctx, warm) })
		hit = append(hit, float64(d)/1e3)
	}
	led.add("cache.solve_hit_us", median(hit))

	// The pass's distinct keys, evaluated directly on a fresh evaluator;
	// verify compares them with the served outcomes.
	ev := sweep.NewEvaluator(0)
	var model, sims []float64
	done := map[string]bool{}
	for _, q := range s.plan {
		if done[q.key] {
			continue
		}
		done[q.key] = true
		var out sweep.Outcome
		d := pr.tr.span(0, "sweep.Evaluate", id+"/ref/"+q.key, func(int64) { out = ev.Evaluate(q.point, q.method) })
		s.refs[q.key] = out
		if q.method == sweep.MethodSim {
			sims = append(sims, ms(d))
		} else {
			model = append(model, float64(d)/1e3)
		}
	}
	led.add("sweep.eval_model_us", median(model))
	led.add("sweep.eval_sim_ms", median(sims))
}

// verify checks every key's served outcome against a direct
// sweep.Evaluator.Evaluate of the same point.
func (s *solveBench) verify() (attempted, failed int) {
	ev := sweep.NewEvaluator(0)
	for k, q := range s.seen {
		ref, ok := s.refs[k]
		if !ok {
			ref = ev.Evaluate(q.point, q.method)
			s.refs[k] = ref
		}
		attempted++
		if got, ok := s.out[k]; !ok || got != ref {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: solve-mix %s served %+v, direct evaluation gives %+v\n", k, got, ref)
		}
	}
	return attempted, failed
}

func (s *solveBench) report(w io.Writer) {}

func (s *solveBench) close() {
	if err := s.server.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: solve-mix: stopping server: %v\n", err)
	}
	s.client.CloseIdleConnections()
}
