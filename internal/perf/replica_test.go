package perf

import (
	"testing"

	"softsec/internal/harness"
)

// TestReplicaMatchesHarness shows the per-layer numbers are measured on
// the same work as the end-to-end ones: for every cell whose per-trial
// config the replica derives from public API (warm-eligible cells,
// cells seeded only through ASLRSeed = harness.TrialSeed, and fuzz
// campaigns), each replicated trial's outcome equals the harness's.
func TestReplicaMatchesHarness(t *testing.T) {
	const trials = 4
	for _, w := range Workloads() {
		if w.Jobs > 1 {
			continue // the same cells as its one-worker twin
		}
		t.Run(w.Name, func(t *testing.T) {
			w.Trials = trials
			cs, err := w.cells()
			if err != nil {
				t.Fatal(err)
			}
			rep := harness.Run(scenarios(cs), harness.Options{Trials: trials, Jobs: 1, BaseSeed: 1})
			res := &Result{}
			r := newReplica(newRecorder(0), res, 1, trials, cs, trials)
			r.run(0, trials, rep.Results)
			for _, p := range res.Problems {
				t.Error(p)
			}
			exact := 0
			for _, c := range cs {
				if c.campaign != nil || !c.canaryPerTrial {
					exact++
				}
			}
			if exact == 0 || r.compared != exact*trials {
				t.Errorf("compared %d trials, want %d (%d derivable cells of %d)", r.compared, exact*trials, exact, len(cs))
			}
		})
	}
}
