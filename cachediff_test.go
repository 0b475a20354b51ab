// Warm-worker and build-cache accounting: which cells are served warm,
// and how many build-cache lookups each trial makes. The behaviour
// oracle (oracle_test.go) checks that neither layer changes a result.
package softsec

import (
	"fmt"
	"testing"

	"softsec/internal/core"
	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// TestEveryStaticCellRunsWarm pins how trials are served and what they
// look up. Every cell with a static mitigation config carries a warm
// hook and is served warm, the adaptive leak-assisted attacker
// included, so the cold loads are exactly the reseeded cells' trials
// (at 3 trials: t1 99 warm / 99 cold, cfi 96 / 0). Every attack trial,
// warm or cold, makes exactly one counted lookup, of core.victim, and
// the run misses once per distinct victim key. Both hold at any -jobs
// width.
func TestEveryStaticCellRunsWarm(t *testing.T) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		t.Fatal(err)
	}
	const trials = 3
	for _, group := range []string{"t1", "cfi", "t1p"} {
		scs := reg.Group(group)
		reseeded := 0
		for _, sc := range scs {
			if sc.Warm == nil {
				reseeded++
			}
		}
		misses := map[int]uint64{}
		for _, jobs := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/jobs=%d", group, jobs), func(t *testing.T) {
				rep := harness.Run(scs, harness.Options{
					Trials: trials, Jobs: jobs, BaseSeed: 7,
					Telemetry: &telemetry.Spec{},
				})
				if rep.ColdLoads != trials*reseeded || rep.WarmRestores != trials*(len(scs)-reseeded) {
					t.Errorf("%d warm / %d cold, want %d / %d (%d of %d cells reseed per trial)",
						rep.WarmRestores, rep.ColdLoads, trials*(len(scs)-reseeded), trials*reseeded,
						reseeded, len(scs))
				}
				c := rep.Telemetry.File().Counters
				want := uint64(trials * len(scs))
				if got := c["buildcache.core.victim.hits"] + c["buildcache.core.victim.misses"]; got != want {
					t.Errorf("%d victim lookups, want one per trial (%d)", got, want)
				}
				if got := c["buildcache.hits"] + c["buildcache.misses"]; got != want {
					t.Errorf("%d build-cache lookups, want one per trial (%d)", got, want)
				}
				misses[jobs] = c["buildcache.misses"]
			})
		}
		if misses[1] != misses[2] {
			t.Errorf("%s: %d build-cache misses at -jobs 1, %d at -jobs 2", group, misses[1], misses[2])
		}
	}
}
