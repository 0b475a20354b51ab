package softsec

import (
	"math"
	"slices"
	"testing"

	"softsec/internal/perf"
)

// TestTraceOtherWorkloads makes a small traced benchmark run of each
// workload the perf package's own quick trace leaves out: every run
// must check out and report a finite value for every per-layer metric.
// A workload that makes no counted build-cache lookup, for example,
// would report a hit ratio of 0/0.
func TestTraceOtherWorkloads(t *testing.T) {
	for _, name := range []string{"aslr_sweep", "cfi_warm", "fuzz_campaigns"} {
		t.Run(name, func(t *testing.T) {
			w, ok := perf.Lookup(name)
			if !ok {
				t.Fatalf("no workload %q", name)
			}
			w.Trials = 2
			res, err := perf.Trace(w, perf.Options{Seed: 3}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct() {
				t.Errorf("failed %d: %v", res.Failed, res.Problems)
			}
			for _, spec := range perf.PerLayer {
				i := slices.IndexFunc(res.Metrics, func(m perf.Metric) bool { return m.Name == spec.Name })
				if i < 0 {
					t.Errorf("metric %s missing", spec.Name)
				} else if v := res.Metrics[i].Value; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("metric %s = %v", spec.Name, v)
				}
			}
		})
	}
}
