package main

import (
	"strings"
	"testing"
)

// oneProc and eightProcs are the same two benchmarks as go test prints
// them with GOMAXPROCS 1 (no suffix) and 8 ("-8" on every name). The
// sub-benchmark's own name ends in a number, which is not a suffix.
const oneProc = `goos: linux
BenchmarkPartialAdmission/shed-0-of-8         	     100	     10858 ns/op	    5120 B/op	      94 allocs/op
BenchmarkPartialAdmission/shed-0-of-8         	     100	     10001 ns/op	    5120 B/op	      95 allocs/op
BenchmarkRevokeRestore                        	     100	     12245 ns/op	    4096 B/op	      80 allocs/op
PASS
`

const eightProcs = `goos: linux
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
	for name, out := range map[string]string{"1 proc": oneProc, "8 procs": eightProcs} {
		got, err := parseBench(strings.NewReader(out))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
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
