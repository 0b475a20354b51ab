// Command perf is the repository benchmark. It runs one named workload
// (or every workload in turn) through harness.Run, checks every report
// against its expected digest, and prints each metric by name with its
// unit, then one JSON line with the run's verdict and metrics.
//
//	bash cmd/perf/run.sh -workload t1_sweep -seed 1 -seconds 22
//	bash cmd/perf/run.sh -workload t1_sweep -seed 1 -seconds 22 -trace 1 -traceout t1.json
//
// run.sh builds this module from source under .bench_build and runs it;
// `go -C cmd/perf run . -workload t1_sweep` does the same with the
// default Go environment. -trace 1 makes a traced run instead, which
// reports the per-layer metrics and writes a Chrome trace (loadable by
// Perfetto). The command itself is perf.Main; the workloads, metrics and
// bounds are documented in package softsec/internal/perf.
//
// Exit status: 0 when every output checked out, 1 when one did not, 2 on
// a usage error.
package main

import (
	"os"

	"softsec/internal/perf"
)

func main() {
	os.Exit(perf.Main(os.Args[1:], os.Stdout, os.Stderr))
}
