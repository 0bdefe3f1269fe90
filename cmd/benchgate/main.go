// Command benchgate is the CI perf regression gate: it parses `go test
// -bench` output, reduces each benchmark to its best (minimum) run —
// min-of-N is robust against scheduler noise, which only ever slows a
// run down — and compares each one's time, as a ratio to an in-run
// calibration benchmark, and its allocs/op against a checked-in
// baseline, failing on regressions beyond the tolerance.
//
// Usage:
//
//	go test -run '^$' -bench 'Calibrate|...' -benchtime 100x -count 5 . | tee bench.out
//	go run ./cmd/benchgate -baseline BENCH_baseline.json bench.out
//
// With -update the measured results overwrite the baseline instead of
// being checked — run it when a PR deliberately shifts performance:
//
//	go run ./cmd/benchgate -baseline BENCH_baseline.json -update bench.out
//
// Benchmark names are keyed without the GOMAXPROCS suffix go test
// appends on multi-core runs, so a baseline recorded on one core gates
// a run on eight.
//
// Rules:
//   - time: each benchmark's ns/op is divided by the ns/op of the
//     calibration benchmark (BenchmarkCalibrate, a fixed CPU-bound loop
//     that runs no repository code) measured in the same input, and
//     the gate fails when that ratio exceeds the baseline's ratio ×
//     (1 + tol), default 20%. A faster or slower host moves both sides
//     of the ratio, so the gate judges the code, not the machine. The
//     input must hold the calibration benchmark.
//   - allocs/op: fail when measured > baseline × (1 + tol), and any
//     increase from a zero baseline fails — allocation counts are
//     deterministic, and zero-alloc paths are the ones this repo's
//     hot-path work guarantees. The calibration benchmark is gated on
//     allocs/op like any other.
//   - a baseline benchmark missing from the input fails (the gate must
//     not silently narrow); a new benchmark not in the baseline is
//     reported as a hint to refresh.
//
// The baseline records the host it was measured on (goos, goarch, cpu
// and GOMAXPROCS, from the go test header); a run on another host is
// noted, not failed.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// calibration is the reference benchmark every ns/op is divided by.
const calibration = "BenchmarkCalibrate"

// measurement is one benchmark's reduced result.
type measurement struct {
	NsPerOp float64 `json:"ns_per_op"`
	// Ratio is NsPerOp over the calibration benchmark's ns/op in the
	// same input: the figure the time gate compares.
	Ratio       float64 `json:"ratio"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// host is the machine a bench output was produced on, from the go test
// header lines and the names' GOMAXPROCS suffix.
type host struct {
	Goos       string `json:"goos"`
	Goarch     string `json:"goarch"`
	CPU        string `json:"cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// baseline is the checked-in reference file.
type baseline struct {
	// Benchtime and Count document how the numbers were produced.
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
	Host      host   `json:"host"`
	// Calibration names the benchmark the ratios divide by.
	Calibration string `json:"calibration"`
	// Benchmarks maps the full benchmark name (sub-benchmarks included,
	// CPU suffix stripped) to its reference result.
	Benchmarks map[string]measurement `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgate: ")
	var (
		baselinePath = flag.String("baseline", "BENCH_baseline.json", "baseline JSON file")
		update       = flag.Bool("update", false, "write the measured results to the baseline instead of checking")
		tol          = flag.Float64("tol", 0.20, "allowed fractional regression in ns/op and allocs/op")
		benchtime    = flag.String("benchtime", "100x", "recorded in the baseline on -update (documentation only)")
		count        = flag.Int("count", 5, "recorded in the baseline on -update (documentation only)")
	)
	flag.Parse()

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		in = f
	}
	got, h, err := parseBench(in)
	if err != nil {
		log.Fatal(err)
	}
	if len(got) == 0 {
		log.Fatal("no benchmark results in input")
	}
	if err := calibrate(got); err != nil {
		log.Fatal(err)
	}

	if *update {
		b := baseline{Benchtime: *benchtime, Count: *count, Host: h, Calibration: calibration, Benchmarks: got}
		var buf strings.Builder
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(b); err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*baselinePath, []byte(buf.String()), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("benchgate: wrote %d benchmarks to %s\n", len(got), *baselinePath)
		return
	}

	raw, err := os.ReadFile(*baselinePath)
	if err != nil {
		log.Fatalf("%v (run with -update to create the baseline)", err)
	}
	var base baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		log.Fatalf("parsing %s: %v", *baselinePath, err)
	}

	failures, notes := compare(base.Benchmarks, got, *tol)
	if h != base.Host {
		notes = append(notes, fmt.Sprintf("host %+v differs from the baseline's %+v: times are gated as ratios to %s", h, base.Host, calibration))
	}
	for _, n := range notes {
		fmt.Println("benchgate: note:", n)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Println("benchgate: FAIL:", f)
		}
		log.Fatalf("%d regression(s) beyond %.0f%% tolerance (refresh %s with -update if intended)",
			len(failures), *tol*100, *baselinePath)
	}
	fmt.Printf("benchgate: %d benchmarks within %.0f%% of baseline\n", len(base.Benchmarks), *tol*100)
}

// calibrate fills in every measurement's Ratio from the calibration
// benchmark, which the input must hold.
func calibrate(got map[string]measurement) error {
	c, ok := got[calibration]
	if !ok || c.NsPerOp <= 0 {
		return fmt.Errorf("input holds no %s result: time can only be gated relative to it", calibration)
	}
	for name, m := range got {
		m.Ratio = m.NsPerOp / c.NsPerOp
		got[name] = m
	}
	return nil
}

// compare checks measured results against the baseline. Both maps key
// by benchmark name.
func compare(base, got map[string]measurement, tol float64) (failures, notes []string) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		g, ok := got[name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but not measured", name))
			continue
		}
		if name != calibration && g.Ratio > b.Ratio*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s: %.4g× calibration vs baseline %.4g× (%+.1f%%; %.0f ns/op)",
				name, g.Ratio, b.Ratio, 100*(g.Ratio/b.Ratio-1), g.NsPerOp))
		}
		switch {
		case b.AllocsPerOp == 0 && g.AllocsPerOp > 0:
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs zero-alloc baseline", name, g.AllocsPerOp))
		case float64(g.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol):
			failures = append(failures, fmt.Sprintf("%s: %d allocs/op vs baseline %d (%+.1f%%)",
				name, g.AllocsPerOp, b.AllocsPerOp, 100*(float64(g.AllocsPerOp)/float64(b.AllocsPerOp)-1)))
		}
		if name != calibration && b.Ratio > 0 && g.Ratio < b.Ratio*(1-tol) {
			notes = append(notes, fmt.Sprintf("%s: %.4g× calibration is %.1f%% below baseline — consider refreshing",
				name, g.Ratio, 100*(1-g.Ratio/b.Ratio)))
		}
	}
	for name := range got {
		if _, ok := base[name]; !ok {
			notes = append(notes, fmt.Sprintf("%s: not in baseline — refresh with -update to start gating it", name))
		}
	}
	sort.Strings(notes)
	return failures, notes
}

// parseBench reads `go test -bench` output and reduces repeated runs
// (-count=N) of each benchmark to the minimum ns/op and allocs/op,
// keyed by name without the run's GOMAXPROCS suffix (see procsSuffix).
// It also returns the host the header lines and the suffix describe.
func parseBench(r io.Reader) (map[string]measurement, host, error) {
	type result struct {
		name string
		m    measurement
	}
	var results []result
	var h host
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		for key, dst := range map[string]*string{"goos: ": &h.Goos, "goarch: ": &h.Goarch, "cpu: ": &h.CPU} {
			if v, ok := strings.CutPrefix(line, key); ok {
				*dst = strings.TrimSpace(v)
			}
		}
		fields := strings.Fields(line)
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		// BenchmarkName-8  100  1234 ns/op  [custom metrics...]  56 B/op  7 allocs/op
		var m measurement
		var haveNs bool
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				m.NsPerOp, haveNs = v, true
			case "allocs/op":
				// Benchmarks without ReportAllocs gate on time alone.
				m.AllocsPerOp = int64(v)
			}
		}
		if haveNs {
			results = append(results, result{fields[0], m})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, h, err
	}
	names := make([]string, len(results))
	for i, res := range results {
		names[i] = res.name
	}
	suffix := procsSuffix(names)
	h.GOMAXPROCS = 1
	if suffix != "" {
		h.GOMAXPROCS, _ = strconv.Atoi(suffix[1:])
	}
	out := map[string]measurement{}
	for _, res := range results {
		name := strings.TrimSuffix(res.name, suffix)
		prev, ok := out[name]
		if !ok {
			out[name] = res.m
			continue
		}
		prev.NsPerOp = min(prev.NsPerOp, res.m.NsPerOp)
		prev.AllocsPerOp = min(prev.AllocsPerOp, res.m.AllocsPerOp)
		out[name] = prev
	}
	return out, h, nil
}

// procsSuffix returns the GOMAXPROCS suffix `go test -bench` appended
// to the benchmark names of a run, "-8" on an 8-proc run, or "" on a
// 1-proc run, where it appends none. GOMAXPROCS is the same for every
// line of a run, so the suffix is the trailing "-<int>" that every name
// ends in; a trailing number that belongs to a sub-benchmark's own name
// (PartialAdmission/shed-0-of-8) is not shared by every line and stays.
func procsSuffix(names []string) string {
	suffix := ""
	for _, name := range names {
		i := strings.LastIndex(name, "-")
		if i <= 0 {
			return ""
		}
		if _, err := strconv.Atoi(name[i+1:]); err != nil {
			return ""
		}
		if suffix == "" {
			suffix = name[i:]
		} else if name[i:] != suffix {
			return ""
		}
	}
	return suffix
}
