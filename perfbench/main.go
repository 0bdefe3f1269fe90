// Command perfbench is the repository's end-to-end benchmark. It drives
// the public admission and replay API the way a client does — one
// process, one client goroutine, closed loop — over three seeded
// workloads, checks every output against the from-scratch oracles, and
// prints the figures by name and unit. The last line of its standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans around every public call it makes, writes them
// to .bench_out, and reports the per-layer breakdown instead. BENCHMARK.json
// at the repository root lists both metric sets; layers.json next to
// this file maps each per-layer metric to the end-to-end metric and
// workload it should move.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload churn-grid --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the parsed command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
}

// outDir is where a traced run writes its spans, under the directory
// the benchmark runs in.
const outDir = ".bench_out"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long the run measures")
	fs.IntVar(&traceFlag, "trace", 0, "1 records spans and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = traceFlag != 0
	// One client goroutine and sequential replays need one processor.
	// With a second one the collector's background worker runs beside
	// the client, and how much of that core the host grants swings the
	// tail latencies from run to run; on one processor collection work
	// lands on the calls that cause it.
	runtime.GOMAXPROCS(1)
	w, ok := workloads[o.workload]
	if !ok || o.seconds <= 0 || traceFlag < 0 || traceFlag > 1 {
		fmt.Fprintf(stderr, "perfbench: need -workload one of %s, -seconds > 0 and -trace 0 or 1\n", strings.Join(workloadNames(), ", "))
		return 2
	}

	host := hostInfo()
	hostLine, _ := json.Marshal(map[string]any{"host": host, "workload": o.workload, "seed": o.seed, "seconds": o.seconds, "trace": traceFlag})
	fmt.Fprintln(stdout, string(hostLine))

	fx, err := w.prepare(o.seed)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: prepare inputs: %v\n", o.workload, err)
		return 1
	}
	rep, err := measure(fx, w, o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload, err)
		return 1
	}
	for _, msg := range rep.failures {
		fmt.Fprintf(stdout, "FAIL (x%d) %s\n", rep.failN[msg], msg)
	}
	for _, line := range rep.notes {
		fmt.Fprintln(stdout, line)
	}
	if o.trace {
		if err := writeSpans(o, rep.tracer, host, rep.metrics); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
	}
	out, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is a finished run: its tallies, metrics and diagnostics.
type report struct {
	attempted, failed int
	// broken marks a run whose outputs are wrong for a reason that is
	// not tied to one operation (a determinism or validity check).
	broken  bool
	metrics map[string]metric
	notes   []string
	// failures counts each distinct failure message, in first-seen
	// order, so a failure every round repeats prints once.
	failures []string
	failN    map[string]int
	tracer   *tracer
}

func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// fail records a failed operation or check with its reason.
func (r *report) fail(format string, args ...any) {
	r.failed++
	msg := fmt.Sprintf(format, args...)
	if r.failN == nil {
		r.failN = map[string]int{}
	}
	if r.failN[msg] == 0 {
		r.failures = append(r.failures, msg)
	}
	r.failN[msg]++
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) result() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && !r.broken, max(r.attempted, 1), r.failed, r.metrics}
}

// host describes the machine a result was measured on.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
}

func hostInfo() host {
	return host{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpuModel(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in
// place; 0 for an empty sample.
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if !sort.SliceIsSorted(xs, func(i, j int) bool { return xs[i] < xs[j] }) {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	}
	k := int(q*float64(len(xs))+0.999999999) - 1
	return float64(xs[min(max(k, 0), len(xs)-1)])
}

// median returns the median of xs (mean of the middle pair for an even
// count), sorting xs in place; 0 for an empty sample.
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
