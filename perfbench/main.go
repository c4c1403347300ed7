// Command perfbench is the repository's benchmark. It runs one named
// workload at a given seed, checks the program's outputs, and prints
// every metric by name and unit, ending with one JSON line:
//
//	bash perfbench/run.sh --workload replay-benign --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is split into an untraced and a traced part and prints the
// per-layer metrics and the cost ledger instead. NOTES.md beside this
// file says why each workload exists.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// defaultSeed is the seed runs use unless --seed says otherwise.
const defaultSeed = 1

// metricDef declares one metric the benchmark reports.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics of an untraced run; BENCHMARK.json lists the
// same names and units.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"mpps", "Mpps", "higher"},
	{"allocs_per_pkt", "allocs/pkt", "lower"},
	{"max_rss_mb", "MB", "lower"},
	{"benign_drop_pct", "%", "lower"},
}

// perLayer are the metrics of a traced run. A layer that is not on a
// workload's path reports 0 there.
var perLayer = []metricDef{
	{"pcap.next_ns", "ns", "lower"},
	{"packet.decode_ns", "ns", "lower"},
	{"ingest.offer_ns", "ns", "lower"},
	{"ingest.wait_ns", "ns", "lower"},
	{"ingest.retries_per_pkt", "retries/pkt", "lower"},
	{"cluster.observe_ns", "ns", "lower"},
	{"core.observe_frames_ns", "ns", "lower"},
	{"core.poll_wall_us", "us", "lower"},
	{"core.deploy_latency_ms_p50", "ms", "lower"},
	{"core.deploy_latency_ms_p99", "ms", "lower"},
	{"core.deploys", "count", "higher"},
	{"core.step_us", "us", "lower"},
	{"core.classify_ns", "ns", "lower"},
	{"traffic.next_ns", "ns", "lower"},
	{"netsim.inject_ns", "ns", "lower"},
	{"jaqen.inject_ns", "ns", "lower"},
	{"queue.enqueue_ns", "ns", "lower"},
	{"queue.dequeue_ns", "ns", "lower"},
	{"eventsim.self_ns", "ns", "lower"},
	{"ledger.stage_sum_ns", "ns", "lower"},
	{"ledger.e2e_ns", "ns", "lower"},
	{"ledger.residual_ns", "ns", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// runConfig is one invocation.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	traceDir string
	// scale multiplies the input size; 1 is the benchmark, tests use
	// less.
	scale float64
}

// result is what a workload run reports.
type result struct {
	attempted, failed uint64
	failures          []string
	lines             []string // human-readable report, printed before the metrics
	metrics           map[string]float64
	ledger            *ledger
}

func newResult() *result { return &result{metrics: map[string]float64{}} }

func (r *result) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// check records a check's outcome; a failed check fails the run.
func (r *result) check(name string, err error) {
	if err != nil {
		r.failures = append(r.failures, fmt.Sprintf("%s: %v", name, err))
		r.printf("check %s: FAILED: %v", name, err)
		return
	}
	r.printf("check %s: ok", name)
}

// workloads maps each name to its runner.
var workloads = map[string]func(runConfig) (*result, error){
	"replay-benign":   func(c runConfig) (*result, error) { return runReplay(c, replayBenign) },
	"replay-synflood": func(c runConfig) (*result, error) { return runReplay(c, replaySynFlood) },
	"sim-pulsewave":   runSim,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	seed := fs.Int64("seed", defaultSeed, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "measurement time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced variant: per-layer metrics and the cost ledger")
	traceDir := fs.String("trace-dir", "", "directory receiving a traced run's spans as CSV (none when empty)")
	scale := fs.Float64("scale", 1, "input-size multiplier (1 is the benchmark)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runFn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || *scale <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds > 0, --scale > 0, --trace 0|1\n", workloadNames())
		return 2
	}
	c := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds,
		trace: *trace == 1, traceDir: *traceDir, scale: *scale,
	}
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d seconds=%g trace=%d scale=%g\n", c.workload, c.seed, c.seconds, *trace, c.scale)
	res, err := runFn(c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", c.workload, err)
		return 1
	}
	if !c.trace {
		rss, err := maxRSSMB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: reading peak memory: %v\n", err)
			return 1
		}
		res.metrics["max_rss_mb"] = rss
	}
	return report(stdout, stderr, c, res)
}

// report prints the human-readable lines, the metrics, the ledger and
// the final JSON line. It returns 1 when a check failed.
func report(stdout, stderr io.Writer, c runConfig, res *result) int {
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{
		Correct:   len(res.failures) == 0 && res.failed == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]jsonMetric{},
	}
	for _, d := range defs {
		v := res.metrics[d.Name]
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "metric %-28s %14.6g %s\n", d.Name, v, d.Unit)
	}
	if res.ledger != nil {
		res.ledger.print(stdout)
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !out.Correct {
		for _, f := range res.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", f)
		}
		return 1
	}
	return 0
}

// ledgerLine is one blocking-path stage's cost per packet.
type ledgerLine struct {
	name string
	ns   float64
}

// ledger splits a traced workload's per-packet cost into the stages on
// its blocking path and sets their sum against the untraced end-to-end
// cost. The residual is reported signed, never clamped.
type ledger struct {
	workload, path   string
	stages           []ledgerLine
	e2eNs            float64
	untraced, traced float64 // Mpps
}

func (l *ledger) add(name string, ns float64) {
	l.stages = append(l.stages, ledgerLine{name, ns})
}

func (l *ledger) sum() float64 {
	s := 0.0
	for _, st := range l.stages {
		s += st.ns
	}
	return s
}

func (l *ledger) residual() float64 { return l.e2eNs - l.sum() }

// overheadPct is how much slower the traced run was than the untraced
// one.
func (l *ledger) overheadPct() float64 {
	if l.traced == 0 {
		return 0
	}
	return (l.untraced/l.traced - 1) * 100
}

func (l *ledger) fill(m map[string]float64) {
	m["ledger.stage_sum_ns"] = l.sum()
	m["ledger.e2e_ns"] = l.e2eNs
	m["ledger.residual_ns"] = l.residual()
	m["trace.overhead_pct"] = l.overheadPct()
}

func (l *ledger) print(w io.Writer) {
	fmt.Fprintf(w, "ledger %s (blocking path: %s)\n", l.workload, l.path)
	for _, st := range l.stages {
		fmt.Fprintf(w, "  %-26s %10.1f ns/pkt\n", st.name, st.ns)
	}
	fmt.Fprintf(w, "  %-26s %10.1f ns/pkt\n", "sum of stages", l.sum())
	fmt.Fprintf(w, "  %-26s %10.1f ns/pkt\n", "end to end (untraced)", l.e2eNs)
	fmt.Fprintf(w, "  %-26s %+10.1f ns/pkt\n", "residual", l.residual())
	fmt.Fprintf(w, "  %-26s %+10.1f %% (traced %.3f Mpps, untraced %.3f Mpps)\n",
		"tracing overhead", l.overheadPct(), l.traced, l.untraced)
}

// maxRSSMB is the process's peak resident memory.
func maxRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil // kilobytes on Linux
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// median returns the middle of xs (the mean of the two middles for an
// even count); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quartiles describes a sample by its minimum, quartiles and maximum.
func quartiles(xs []float64) string {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return "none"
	}
	return fmt.Sprintf("min %.4g q1 %.4g median %.4g q3 %.4g max %.4g", s[0], s[n/4], median(s), s[(3*n)/4], s[n-1])
}

// writeTrace dumps the spans of a traced run when a directory is set.
func writeTrace(c runConfig, tr *tracer, res *result) error {
	if c.traceDir == "" {
		return nil
	}
	path := filepath.Join(c.traceDir, c.workload+".spans.csv")
	if err := tr.writeCSV(path); err != nil {
		return err
	}
	res.printf("trace spans written to %s", path)
	return nil
}
