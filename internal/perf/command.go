package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

// gcPercent is the garbage collector's GOGC for every run of the command
// (see "Garbage collector" in the package doc).
const gcPercent = 400

// Main is the benchmark command (cmd/perf): it parses args, runs the
// named workload (or every workload in turn), prints each metric by name
// with its unit and then one JSON line with the run's verdict and
// metrics, and returns the exit status: 0 when every output checked out,
// 1 when one did not, 2 on a usage error.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run; empty runs every workload in turn")
	seed := fs.Int64("seed", 1, "base seed every trial's inputs derive from")
	seconds := fs.Float64("seconds", 22, "how long the timed reps of a run last")
	trace := fs.Int("trace", 0, "1 makes a traced run, reporting per-layer metrics")
	traceOut := fs.String("traceout", "", "Chrome trace file of a traced run (default .bench_build/perf-trace-<workload>.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds < 0 {
		fs.Usage()
		return 2
	}
	ws := Workloads()
	if *workload != "" {
		w, ok := Lookup(*workload)
		if !ok {
			fmt.Fprintf(stderr, "perf: unknown workload %q\n", *workload)
			return 2
		}
		ws = []Workload{w}
	}
	opt := Options{Seed: *seed, Budget: time.Duration(*seconds * float64(time.Second))}
	debug.SetGCPercent(gcPercent)
	status := 0
	for _, w := range ws {
		var res *Result
		var specs []MetricSpec
		var err error
		kind := "untraced"
		if *trace == 1 {
			kind = "traced"
			res, err = traceTo(w, opt, *traceOut, stdout)
			specs = PerLayer
		} else {
			res, err = Measure(w, opt)
			specs = EndToEnd
		}
		if err == nil {
			fmt.Fprintf(stdout, "%s seed %d, %s: %s\n", w.Name, opt.Seed, kind, w.Why)
			err = report(res, specs, stdout, stderr)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if !res.Correct() {
			status = 1
		}
	}
	return status
}

// traceTo makes a traced run and writes its Chrome trace to path.
func traceTo(w Workload, opt Options, path string, stdout io.Writer) (*Result, error) {
	if path == "" {
		path = filepath.Join(".bench_build", "perf-trace-"+w.Name+".json")
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	res, err := Trace(w, opt, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "trace written to %s\n", path)
	return res, nil
}

// report prints the run's tables and, last, its JSON line. The JSON line
// carries exactly the declared metrics, in the units they are declared
// with; a declared metric that is missing or not a number is an error.
func report(res *Result, specs []MetricSpec, stdout, stderr io.Writer) error {
	byName := make(map[string]Metric)
	for _, m := range res.Metrics {
		byName[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	for _, s := range specs {
		m, ok := byName[s.Name]
		if !ok || m.Unit != s.Unit {
			return fmt.Errorf("perf: %s: metric %s (%s) not reported", res.Workload, s.Name, s.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("perf: %s: metric %s is %v", res.Workload, s.Name, m.Value)
		}
		metrics[s.Name] = value{m.Value, m.Unit}
		fmt.Fprintf(stdout, "  %-32s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
	}
	if len(res.Extra) > 0 {
		fmt.Fprintln(stdout, "  workload-specific:")
		for _, m := range res.Extra {
			fmt.Fprintf(stdout, "  %-32s %14.6g %-10s %s\n", m.Name, m.Value, m.Unit, m.Note)
		}
	}
	for _, l := range res.Notes {
		fmt.Fprintln(stdout, "  "+l)
	}
	fmt.Fprintf(stdout, "  report digest %s\n", res.Digest)
	for _, p := range res.Problems {
		fmt.Fprintln(stderr, "perf: "+p)
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct(), res.Attempted, res.Failed, metrics})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
