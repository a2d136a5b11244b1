// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload — paper-suite, design-sweep or solve-mix — for a fixed
// time, checks every output for correctness, and prints one JSON result
// line last.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload solve-mix --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it prints the end-to-end metrics, measured with
// tracing off. With --trace 1 it prints the per-layer ledger from a
// traced run that records host spans around every call into the
// program and writes them out when it ends. See README.md.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"codesign/internal/sim"
)

// options are the command-line settings.
type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	baseline  string
	outDir    string
	reference string
}

// setupsPerPass is how many set-ups a run times before each pass;
// setup_s is their median. Spreading them over the run, rather than
// timing them back to back, keeps one noisy instant from setting a
// sub-millisecond median.
const setupsPerPass = 5

// minPasses is the fewest measured passes a run makes, whatever its
// time budget.
const minPasses = 3

// passStats is what one pass reports.
type passStats struct {
	// wall is the host time of the pass's measured region.
	wall time.Duration
	// ops counts the operations the pass completed.
	ops int
	// latMS holds per-operation latencies in milliseconds.
	latMS []float64
	// attempted and failed count correctness checks.
	attempted, failed int
}

// probe is what a traced pass records into: host spans, per-layer
// samples, the engine counters it installs around its measured region,
// and the host time its simulating calls took.
type probe struct {
	tr     *tracer
	led    ledger
	ctr    *sim.Counters
	hostNS int64
	pass   int
}

// bench is one set-up workload.
type bench interface {
	// describe prints the workload's inputs and their digests.
	describe(w io.Writer)
	// pass runs one pass; pr is nil with tracing off.
	pass(pr *probe) (passStats, error)
	// verify runs the checks deferred to the end of the run.
	verify() (attempted, failed int)
	// report prints workload lines that are not metrics.
	report(w io.Writer)
	// close releases the workload's resources.
	close()
}

// openers set a workload up.
var openers = map[string]func(options) (bench, error){
	paperSuite:  openPaper,
	designSweep: openSweep,
	solveMix:    openSolve,
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.reference != "" {
		if err := writeReference(o.reference); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	out := bufio.NewWriter(os.Stdout)
	res, err := run(o, out)
	if err != nil {
		out.Flush()
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Fprintf(out, "%s\n", line)
	if err := out.Flush(); err != nil {
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	o := options{baseline: "BENCH_baseline.json", outDir: filepath.Join(".bench_build", "perfbench")}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, ", "))
	fs.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: traced per-layer ledger")
	fs.StringVar(&o.reference, "make-reference", "", "write the design-sweep frontier reference to `file` and exit")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.reference != "" {
		return o, nil
	}
	if _, ok := openers[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames, ", "))
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be >= 1, got %d", o.seconds)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	return o, nil
}

// run sets the workload up, measures it, and returns the result line.
func run(o options, w io.Writer) (*result, error) {
	printEnv(w, o)
	b, _, err := setUp(o)
	if err != nil {
		return nil, err
	}
	defer b.close()
	b.describe(w)

	var res *result
	if o.trace == 0 {
		res, err = measure(o, b, w)
	} else {
		res, err = measureTraced(o, b, w)
	}
	if err != nil {
		return nil, err
	}
	b.report(w)
	a, f := b.verify()
	res.Attempted += a
	res.Failed += f
	res.Correct = res.Failed == 0
	fmt.Fprintf(w, "checks: %d attempted, %d failed, failed_ratio %.6g\n",
		res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)))
	return res, nil
}

// setUp opens the workload from a collected heap and returns it with
// its set-up time in seconds. Without the collection the collector ran
// in every other set-up, and the median fell between the two modes.
func setUp(o options) (bench, float64, error) {
	runtime.GC()
	start := time.Now()
	b, err := openers[o.workload](o)
	return b, time.Since(start).Seconds(), err
}

// printEnv records what the numbers depend on besides the code.
func printEnv(w io.Writer, o options) {
	fmt.Fprintf(w, "perfbench: workload %s, seed %d, %d s, trace %d\n", o.workload, o.seed, o.seconds, o.trace)
	fmt.Fprintf(w, "env: GOMAXPROCS %d, NumCPU %d, cpu %q, %s %s/%s\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel(), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// cpuModel reads the CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// maxRSSMB reads the process's peak resident set in MB.
func maxRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// measure is the end-to-end run: untraced passes until the time budget
// is spent.
func measure(o options, b bench, w io.Writer) (*result, error) {
	var (
		walls, allocs, lats, rates, setups []float64
		ops                                int
		res                                = &result{Metrics: make(map[string]metricValue)}
		ms0, ms1                           runtime.MemStats
	)
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for len(walls) < minPasses || time.Since(start) < budget {
		for i := 0; i < setupsPerPass; i++ {
			sb, d, err := setUp(o)
			if err != nil {
				return nil, err
			}
			sb.close()
			setups = append(setups, d)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		st, err := b.pass(nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		walls = append(walls, st.wall.Seconds())
		allocs = append(allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		lats = append(lats, st.latMS...)
		rates = append(rates, float64(st.ops)/st.wall.Seconds())
		ops += st.ops
		res.Attempted += st.attempted
		res.Failed += st.failed
	}
	rss, err := maxRSSMB()
	if err != nil {
		return nil, err
	}
	values := map[string]float64{
		"setup_s":    median(setups),
		"wall_s":     median(walls),
		"alloc_mb":   median(allocs),
		"max_rss_mb": rss,
		"ops_per_s":  median(rates),
		"op_p50_ms":  percentile(lats, 50),
		"op_p99_ms":  percentile(lats, 99),
	}
	fmt.Fprintf(w, "samples: %d set-ups, %d passes, %d ops, %d latencies (%d beyond p99)\n",
		len(setups), len(walls), ops, len(lats), len(lats)-int(math.Ceil(0.99*float64(len(lats)))))
	return res, fill(res, endToEnd, values, w)
}

// fill copies every spec'd metric into the result, printing each.
func fill(res *result, specs []metricSpec, values map[string]float64, w io.Writer) error {
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", s.Name, v, s.Unit)
	}
	return nil
}

// measureTraced is the per-layer run. It alternates untraced and traced
// passes until the time budget is spent, then fills the layers this
// workload does not reach from one control pass of a workload that
// does.
func measureTraced(o options, b bench, w io.Writer) (*result, error) {
	res := &result{Metrics: make(map[string]metricValue)}
	tr := newTracer()
	led := make(ledger)
	var plain, traced []float64
	var gcs runtime.MemStats
	budget := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for i := 0; len(traced) < minPasses || time.Since(start) < budget; i++ {
		runtime.GC()
		runtime.ReadMemStats(&gcs)
		n0, p0 := gcs.NumGC, gcs.PauseTotalNs
		st, err := b.pass(nil)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&gcs)
		led.add("runtime.gc_cycles", float64(gcs.NumGC-n0))
		led.add("runtime.gc_pause_ms", float64(gcs.PauseTotalNs-p0)/1e6)
		plain = append(plain, st.wall.Seconds())
		res.Attempted += st.attempted
		res.Failed += st.failed

		runtime.GC()
		st, err = tracedPass(b, tr, led, i)
		if err != nil {
			return nil, err
		}
		traced = append(traced, st.wall.Seconds())
		res.Attempted += st.attempted
		res.Failed += st.failed
	}
	led.add("trace_overhead_ratio", median(traced)/median(plain))
	fmt.Fprintf(w, "samples: %d untraced and %d traced passes; trace_overhead_ratio base: median traced %.6g s / median untraced %.6g s\n",
		len(plain), len(traced), median(traced), median(plain))

	values := make(map[string]float64)
	controls := make(map[string][]string)
	for _, s := range perLayer {
		if s.homeOf(o.workload) {
			v, ok := led.value(s.Name)
			if !ok {
				return nil, fmt.Errorf("%s did not measure %s", o.workload, s.Name)
			}
			values[s.Name] = v
		} else {
			controls[s.Home[0]] = append(controls[s.Home[0]], s.Name)
		}
	}
	for _, cw := range workloadNames {
		names := controls[cw]
		if len(names) == 0 {
			continue
		}
		cv, err := controlPass(o, cw, tr)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			v, ok := cv.value(n)
			if !ok {
				return nil, fmt.Errorf("control pass of %s did not measure %s", cw, n)
			}
			values[n] = v
		}
		fmt.Fprintf(w, "control: %s from one traced pass of %s\n", strings.Join(names, " "), cw)
	}
	if err := writeSpanFiles(o, b, tr, w); err != nil {
		return nil, err
	}
	tr.writeSelfTimes(w)
	return res, fill(res, perLayer, values, w)
}

// tracedPass runs one traced pass and adds the engine counters it saw
// to the ledger.
func tracedPass(b bench, tr *tracer, led ledger, i int) (passStats, error) {
	pr := &probe{tr: tr, led: led, ctr: &sim.Counters{}, pass: i}
	st, err := b.pass(pr)
	sim.InstallCounters(nil)
	if err != nil {
		return st, err
	}
	c := pr.ctr.Snapshot()
	led.add("sim.events", float64(c.EventsPopped))
	led.add("sim.spans", float64(c.SpansEmitted))
	led.add("sim.ns_per_event", ratio(float64(pr.hostNS), float64(c.EventsPopped)))
	led.add("sim.handoff_ratio", ratio(float64(c.Handoffs), float64(c.Handoffs+c.SelfResumes)))
	led.add("sim.fused_ratio", ratio(float64(c.FusedSteps), float64(c.EventsPopped)))
	return st, nil
}

// controlPass sets workload cw up with the run's seed and returns the
// ledger of one traced pass of it. A failed check in it is an error.
func controlPass(o options, cw string, tr *tracer) (ledger, error) {
	co := o
	co.workload = cw
	cb, err := openers[cw](co)
	if err != nil {
		return nil, err
	}
	defer cb.close()
	led := make(ledger)
	st, err := tracedPass(cb, tr, led, -1)
	if err != nil {
		return nil, err
	}
	if _, f := cb.verify(); st.failed+f > 0 {
		return nil, fmt.Errorf("control pass of %s failed %d checks", cw, st.failed+f)
	}
	return led, nil
}

// writeSpanFiles writes the host spans and, where the workload keeps
// them, simulated spans in the trace package's format.
func writeSpanFiles(o options, b bench, tr *tracer, w io.Writer) error {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(o.outDir, fmt.Sprintf("%s-seed%d.host-spans.jsonl", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = tr.writeSpans(f, o.workload, o.seed)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "spans: host spans in %s\n", path)
	if sw, ok := b.(interface{ writeSimSpans(string) (string, error) }); ok {
		p, err := sw.writeSimSpans(o.outDir)
		if err != nil {
			return err
		}
		if p != "" {
			fmt.Fprintf(w, "spans: simulated spans in %s\n", p)
		}
	}
	return nil
}
