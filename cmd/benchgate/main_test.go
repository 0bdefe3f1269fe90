package main

import (
	"strings"
	"testing"
)

// oneProc and eightProcs are the same two benchmarks as go test prints
// them with GOMAXPROCS 1 (no suffix) and 8 ("-8" on every name). The
// sub-benchmark's own name ends in a number, which is not a suffix.
const oneProc = `goos: linux
goarch: amd64
cpu: Example CPU @ 2.00GHz
BenchmarkPartialAdmission/shed-0-of-8         	     100	     10858 ns/op	    5120 B/op	      94 allocs/op
BenchmarkPartialAdmission/shed-0-of-8         	     100	     10001 ns/op	    5120 B/op	      95 allocs/op
BenchmarkRevokeRestore                        	     100	     12245 ns/op	    4096 B/op	      80 allocs/op
PASS
`

const eightProcs = `goos: linux
goarch: amd64
cpu: Example CPU @ 2.00GHz
BenchmarkPartialAdmission/shed-0-of-8-8       	     100	     10858 ns/op	    5120 B/op	      94 allocs/op
BenchmarkPartialAdmission/shed-0-of-8-8       	     100	     10001 ns/op	    5120 B/op	      95 allocs/op
BenchmarkRevokeRestore-8                      	     100	     12245 ns/op	    4096 B/op	      80 allocs/op
PASS
`

func TestParseBenchStripsOnlyTheProcsSuffix(t *testing.T) {
	want := map[string]measurement{
		"BenchmarkPartialAdmission/shed-0-of-8": {NsPerOp: 10001, AllocsPerOp: 94},
		"BenchmarkRevokeRestore":                {NsPerOp: 12245, AllocsPerOp: 80},
	}
	for name, c := range map[string]struct {
		out   string
		procs int
	}{"1 proc": {oneProc, 1}, "8 procs": {eightProcs, 8}} {
		got, h, err := parseBench(strings.NewReader(c.out))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := (host{Goos: "linux", Goarch: "amd64", CPU: "Example CPU @ 2.00GHz", GOMAXPROCS: c.procs}); h != want {
			t.Fatalf("%s: host %+v, want %+v", name, h, want)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: parsed %v, want %v", name, got, want)
		}
		for bench, m := range want {
			if got[bench] != m {
				t.Fatalf("%s: %s = %+v, want %+v (parsed %v)", name, bench, got[bench], m, got)
			}
		}
	}
}

// run builds a measured result set from (name, ns/op, allocs/op)
// triples, calibrated as the gate does.
func run(t *testing.T, rows ...any) map[string]measurement {
	t.Helper()
	out := map[string]measurement{}
	for i := 0; i+2 < len(rows); i += 3 {
		out[rows[i].(string)] = measurement{NsPerOp: rows[i+1].(float64), AllocsPerOp: int64(rows[i+2].(int))}
	}
	if err := calibrate(out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestCompareGatesRatios: the time gate compares each benchmark's ratio
// to the calibration benchmark, so a uniformly slower or faster host
// passes while a regression of the code against the same reference
// fails; allocs/op stay absolute, and zero stays zero.
func TestCompareGatesRatios(t *testing.T) {
	base := run(t, calibration, 1000.0, 0, "BenchmarkHot", 5000.0, 0, "BenchmarkWarm", 20000.0, 12)
	for _, c := range []struct {
		name     string
		got      map[string]measurement
		failures int
	}{
		{"same host", run(t, calibration, 1000.0, 0, "BenchmarkHot", 5500.0, 0, "BenchmarkWarm", 21000.0, 12), 0},
		{"3x slower host", run(t, calibration, 3000.0, 0, "BenchmarkHot", 15500.0, 0, "BenchmarkWarm", 61000.0, 12), 0},
		{"2x faster host", run(t, calibration, 500.0, 0, "BenchmarkHot", 2600.0, 0, "BenchmarkWarm", 10000.0, 12), 0},
		{"hot path 30% slower", run(t, calibration, 3000.0, 0, "BenchmarkHot", 19500.0, 0, "BenchmarkWarm", 61000.0, 12), 1},
		{"zero-alloc path allocates", run(t, calibration, 1000.0, 0, "BenchmarkHot", 5000.0, 1, "BenchmarkWarm", 20000.0, 12), 1},
		{"allocs up 25%", run(t, calibration, 1000.0, 0, "BenchmarkHot", 5000.0, 0, "BenchmarkWarm", 20000.0, 15), 1},
		{"benchmark missing", run(t, calibration, 1000.0, 0, "BenchmarkHot", 5000.0, 0), 1},
	} {
		failures, _ := compare(base, c.got, 0.20)
		if len(failures) != c.failures {
			t.Errorf("%s: failures %q, want %d", c.name, failures, c.failures)
		}
	}
	if err := calibrate(map[string]measurement{"BenchmarkHot": {NsPerOp: 1}}); err == nil {
		t.Error("an input without the calibration benchmark must not be gated")
	}
}
