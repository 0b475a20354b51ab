package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"testing"

	"softsec/internal/harness"
)

// TestQuickRuns runs every workload at two trials per cell with the
// smallest budget: zero failures, every rep's report equal to the first
// (and, with two workers, to a one-worker rep), every end-to-end metric
// reported and positive.
func TestQuickRuns(t *testing.T) {
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			w.Trials = 2
			res, err := Measure(w, Options{Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() || res.Attempted == 0 {
				t.Errorf("attempted %d, failed %d: %v", res.Attempted, res.Failed, res.Problems)
			}
			checkMetrics(t, res, EndToEnd)
		})
	}
}

// TestQuickTrace makes small traced runs, one with two workers recording
// spans at once: every per-layer metric is reported and the trace
// decodes.
func TestQuickTrace(t *testing.T) {
	for _, name := range []string{"t1_sweep", "t1_sweep_j2"} {
		t.Run(name, func(t *testing.T) {
			w, _ := Lookup(name)
			w.Trials = 2
			var buf bytes.Buffer
			res, err := Trace(w, Options{Seed: 3}, &buf)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Errorf("failed %d: %v", res.Failed, res.Problems)
			}
			if len(res.Metrics) != len(PerLayer) {
				t.Errorf("%d per-layer metrics, want %d", len(res.Metrics), len(PerLayer))
			}
			var doc struct{ TraceEvents []map[string]any }
			if err := json.Unmarshal(buf.Bytes(), &doc); err != nil || len(doc.TraceEvents) == 0 {
				t.Errorf("trace: %d events, %v", len(doc.TraceEvents), err)
			}
		})
	}
}

// TestMainUsage checks the command's usage errors, which exit 2 before
// running anything.
func TestMainUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "no_such_workload"},
		{"-trace", "2"},
		{"-seconds", "-1"},
		{"-no-such-flag"},
		{"stray"},
	} {
		var out, errs bytes.Buffer
		if got := Main(args, &out, &errs); got != 2 || out.Len() != 0 {
			t.Errorf("Main(%q) = %d with stdout %q, want 2 and no output", args, got, out.String())
		}
	}
}

// TestReportLine checks the JSON line the command ends with: exactly the
// keys correct, attempted, failed and metrics, every declared metric with
// its unit, and an error when a declared metric is missing.
func TestReportLine(t *testing.T) {
	res := &Result{Workload: "w", Attempted: 7}
	for i, s := range EndToEnd {
		res.metric(s.Name, s.Unit, float64(i)+0.5, "")
	}
	var out, errs bytes.Buffer
	if err := report(res, EndToEnd, &out, &errs); err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var line map[string]json.RawMessage
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Errorf("keys of %s", lines[len(lines)-1])
	}
	var metrics map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	for i, s := range EndToEnd {
		if m := metrics[s.Name]; m.Unit != s.Unit || m.Value != float64(i)+0.5 {
			t.Errorf("metric %s = %+v", s.Name, m)
		}
	}
	res.Metrics = res.Metrics[1:]
	if err := report(res, EndToEnd, &out, &errs); err == nil {
		t.Error("a missing metric was not an error")
	}
}

func checkMetrics(t *testing.T, res *Result, specs []MetricSpec) {
	t.Helper()
	for _, s := range specs {
		i := slices.IndexFunc(res.Metrics, func(m Metric) bool { return m.Name == s.Name })
		if i < 0 || res.Metrics[i].Unit != s.Unit || !(res.Metrics[i].Value > 0) {
			t.Errorf("metric %s (%s) missing or not positive: %+v", s.Name, s.Unit, res.Metrics)
		}
	}
}

// TestGoldenDigests pins every workload's full-size seed-1 report, so a
// change to simulated behaviour shows here before it shows as a failed
// benchmark run. t1_sweep_j2 runs with two workers against the same
// digest as t1_sweep.
func TestGoldenDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size workloads")
	}
	for _, w := range Workloads() {
		t.Run(w.Name, func(t *testing.T) {
			cs, err := w.cells()
			if err != nil {
				t.Fatal(err)
			}
			rep := harness.Run(scenarios(cs), harness.Options{Trials: w.Trials, Jobs: w.Jobs, BaseSeed: goldenSeed})
			if got := digest(rep); got != golden[w.Name] {
				t.Errorf("report digest %s, golden %s", got, golden[w.Name])
			}
		})
	}
}

// TestBenchmarkJSON keeps the benchmark declaration at the repository
// root in step with what the command reports.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d defined", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].Name || w.Why != workloads[i].Why) {
			t.Errorf("workload %d declared as %+v, defined as %s: %s", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	same := func(kind string, got []metric, want []MetricSpec) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d reported", kind, len(got), len(want))
			return
		}
		for i, m := range got {
			if (MetricSpec{m.Name, m.Unit, m.Better}) != want[i] {
				t.Errorf("%s[%d]: declared %+v, reported %+v", kind, i, m, want[i])
			}
			if (kind == "end_to_end") != (m.Bound != nil) {
				t.Errorf("%s %s: bound %v", kind, m.Name, m.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, EndToEnd)
	same("per_layer", doc.PerLayer, PerLayer)
}
