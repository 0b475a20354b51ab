// Build-cache and warm-worker differential tests: the content-keyed
// build cache and the snapshot-warmed trial workers are throughput
// layers, not semantic ones — every report must be byte-identical with
// the cache disabled, with warm reuse stripped, and at any worker-pool
// width, and the counters they publish must reconcile exactly with the
// trial accounting of the sweep.
package softsec

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"softsec/internal/buildcache"
	"softsec/internal/core"
	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// cacheModes enumerates the two build-cache states under comparison;
// "uncached" (the pre-cache pipeline) is the reference.
var cacheModes = []string{"uncached", "cached"}

// underCache runs f with the build-cache layer pinned on or off,
// restoring the prior state afterwards.
func underCache(t *testing.T, mode string, f func()) {
	t.Helper()
	var enable bool
	switch mode {
	case "cached":
		enable = true
	case "uncached":
		enable = false
	default:
		t.Fatalf("unknown cache mode %q", mode)
	}
	prev := buildcache.SetEnabled(enable)
	defer buildcache.SetEnabled(prev)
	f()
}

// stripWarmHooks copies scenarios without their warm hooks, forcing
// every trial down the cold per-trial path.
func stripWarmHooks(scs []harness.Scenario) []harness.Scenario {
	out := append([]harness.Scenario(nil), scs...)
	for i := range out {
		out[i].Warm = nil
	}
	return out
}

// diffReports requires two sweeps of the same cells to agree byte-for-
// byte on the aggregate JSON and field-for-field on every raw trial.
func diffReports(t *testing.T, scs []harness.Scenario, label string, got, ref *harness.Report) {
	t.Helper()
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Fatalf("aggregate JSON diverged (%s):\n%s\nvs reference:\n%s",
			label, gotJSON, refJSON)
	}
	for si := range got.Results {
		for ti := range got.Results[si] {
			g, r := got.Results[si][ti], ref.Results[si][ti]
			if g.Outcome != r.Outcome || g.Code != r.Code ||
				g.Success != r.Success || g.Detail != r.Detail ||
				(g.Err == nil) != (r.Err == nil) {
				t.Fatalf("%s trial %d diverged (%s): %+v vs reference %+v",
					scs[si].Name, ti, label, g, r)
			}
		}
	}
}

// TestDifferentialCachedVsUncached sweeps every registered scenario
// group with the build cache on and off and requires byte-identical
// reports: memoized compile/link/recon results must be observationally
// equivalent to rebuilding from scratch on every trial, across the
// exploit grids (t1, t3, mc, cfi, t1p) and the fuzz campaigns.
func TestDifferentialCachedVsUncached(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog differential is not short")
	}
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		t.Fatal(err)
	}
	for _, group := range reg.Groups() {
		group := group
		t.Run(group, func(t *testing.T) {
			scs := reg.Group(group)
			if len(scs) == 0 {
				t.Fatalf("empty group %q", group)
			}
			trials := 2
			if group == "fuzz" || group == "fuzzp" {
				trials = 1 // a trial is a whole campaign
			}
			if group == "t1p" {
				trials = 1 // profile-spanning grid: 99 cells x 2 modes
			}
			opt := harness.Options{Trials: trials, Jobs: 2, BaseSeed: 7}

			reps := map[string]*harness.Report{}
			for _, mode := range cacheModes {
				underCache(t, mode, func() { reps[mode] = harness.Run(scs, opt) })
			}
			diffReports(t, scs, "cached vs uncached", reps["cached"], reps["uncached"])
			if reps["cached"].WarmRestores != reps["uncached"].WarmRestores ||
				reps["cached"].ColdLoads != reps["uncached"].ColdLoads {
				t.Fatalf("warm/cold mix depends on the cache layer: cached %d/%d vs uncached %d/%d",
					reps["cached"].WarmRestores, reps["cached"].ColdLoads,
					reps["uncached"].WarmRestores, reps["uncached"].ColdLoads)
			}
		})
	}
}

// TestDifferentialWarmVsCold sweeps the warm-heavy grids with the warm
// hooks in place and stripped, and requires byte-identical reports:
// restoring a pristine snapshot in a reused process must be
// observationally equivalent to a fresh kernel.Load for every trial.
func TestDifferentialWarmVsCold(t *testing.T) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		t.Fatal(err)
	}
	for _, group := range []string{"t1", "cfi"} {
		group := group
		t.Run(group, func(t *testing.T) {
			scs := reg.Group(group)
			if len(scs) == 0 {
				t.Fatalf("empty group %q", group)
			}
			opt := harness.Options{Trials: 3, Jobs: 2, BaseSeed: 7}
			warm := harness.Run(scs, opt)
			cold := harness.Run(stripWarmHooks(scs), opt)
			diffReports(t, scs, "warm vs cold", warm, cold)
			if warm.WarmRestores == 0 {
				t.Fatalf("group %q served no trials from warm snapshots", group)
			}
			if cold.WarmRestores != 0 {
				t.Fatalf("warm-stripped sweep still restored %d snapshots", cold.WarmRestores)
			}
			if cold.ColdLoads != len(scs)*opt.Trials {
				t.Fatalf("warm-stripped sweep cold-loaded %d of %d trials",
					cold.ColdLoads, len(scs)*opt.Trials)
			}
		})
	}
}

// TestBuildCacheCountersReconcile pins the accounting contract of the
// published counters: every trial is served warm or cold (never both,
// never neither), the cache counters are non-zero exactly when the
// cache layer is on, and disabling the layer changes nothing else in
// the metrics file.
func TestBuildCacheCountersReconcile(t *testing.T) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		t.Fatal(err)
	}
	scs := reg.Group("t1")
	if len(scs) == 0 {
		t.Fatal("empty t1 group")
	}
	opt := harness.Options{
		Trials: 2, Jobs: 2, BaseSeed: 11,
		Telemetry: &telemetry.Spec{},
	}
	counters := func(mode string) map[string]uint64 {
		var c map[string]uint64
		underCache(t, mode, func() {
			rep := harness.Run(scs, opt)
			if rep.Telemetry == nil {
				t.Fatal("no registry on a telemetry run")
			}
			c = rep.Telemetry.File().Counters
			if c["harness.warm_restores"] != uint64(rep.WarmRestores) ||
				c["harness.cold_loads"] != uint64(rep.ColdLoads) {
				t.Fatalf("published warm/cold counters %d/%d disagree with the report %d/%d",
					c["harness.warm_restores"], c["harness.cold_loads"],
					rep.WarmRestores, rep.ColdLoads)
			}
		})
		return c
	}

	cached := counters("cached")
	if cached["harness.warm_restores"]+cached["harness.cold_loads"] != cached["harness.trials"] {
		t.Fatalf("warm %d + cold %d != trials %d",
			cached["harness.warm_restores"], cached["harness.cold_loads"],
			cached["harness.trials"])
	}
	if cached["buildcache.hits"] == 0 || cached["buildcache.misses"] == 0 {
		t.Fatalf("cached sweep published hits=%d misses=%d, want both non-zero",
			cached["buildcache.hits"], cached["buildcache.misses"])
	}

	// With the layer off, the buildcache.* counters vanish (zero counters
	// are never published) and everything else is untouched.
	uncached := counters("uncached")
	for name := range uncached {
		if strings.HasPrefix(name, "buildcache.") {
			t.Fatalf("uncached sweep published %s = %d", name, uncached[name])
		}
	}
	for name, v := range cached {
		if strings.HasPrefix(name, "buildcache.") {
			continue
		}
		if uncached[name] != v {
			t.Fatalf("%s: cached %d, uncached %d (cache layer perturbed a non-cache counter)",
				name, v, uncached[name])
		}
	}
	if len(uncached) >= len(cached) {
		t.Fatalf("counter sets: uncached %d names, cached %d (expected buildcache.* only in cached)",
			len(uncached), len(cached))
	}
}

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
