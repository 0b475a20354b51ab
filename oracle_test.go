// The behaviour oracle. The simulator's speed layers (the block and
// trace tiers, the build cache, warm trial workers, the worker pool)
// and its observers (metrics, event traces, progress, the guest
// profiler) must leave every result alone. So every registered scenario
// group is swept once as a reference, with every layer off, and again
// under the table below, and every sweep must reproduce the reference's
// report and trial results exactly. The observers' own files are
// compared across the axes that must not move them. The checks are
// split into seven tests, one for each axis, the published counters and
// the profiler; they share one sweep of each group.
package softsec

import (
	"bytes"
	"io"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"softsec/internal/buildcache"
	"softsec/internal/core"
	"softsec/internal/harness"
	"softsec/internal/telemetry"
)

// oracleRun is one row of the oracle's table: one value on each axis.
type oracleRun struct {
	name     string
	tier     string // "step", "block" or "trace"; see underTier
	cached   bool   // build cache on
	warm     bool   // warm hooks kept; off, every trial loads cold
	jobs     int    // worker-pool width
	observed bool   // counters, events and progress on
	profiled bool   // the guest profiler on
}

// oracleTable holds the reference run, the production run, the
// production run with one axis changed, and three profiled runs. The
// profiler pins execution to the stepping engine, so the profiled runs
// must agree on the folded profile whatever tier they ask for.
var oracleTable = []oracleRun{
	// name, tier, cached, warm, jobs, observed, profiled
	{"reference", "step", false, false, 1, false, false},
	{"production", "trace", true, true, 3, true, false},
	{"step", "step", true, true, 3, true, false},
	{"block", "block", true, true, 3, true, false},
	{"uncached", "trace", false, true, 3, true, false},
	{"cold", "trace", true, false, 3, true, false},
	{"jobs=1", "trace", true, true, 1, true, false},
	{"unobserved", "trace", true, true, 3, false, false},
	{"reference+profiler", "step", false, false, 1, false, true},
	{"block+profiler", "block", true, true, 3, true, true},
	{"production+profiler", "trace", true, true, 3, true, true},
}

// sweep runs trials of every scenario in scs under r's axes.
func (r oracleRun) sweep(t *testing.T, scs []harness.Scenario, trials int) *harness.Report {
	t.Helper()
	opt := harness.Options{Trials: trials, Jobs: r.jobs, BaseSeed: 7}
	if r.observed || r.profiled {
		opt.Telemetry = &telemetry.Spec{Events: r.observed, Profile: r.profiled}
	}
	if r.observed {
		opt.Progress = &harness.Progress{W: io.Discard}
	}
	if !r.warm {
		scs = stripWarmHooks(scs)
	}
	var rep *harness.Report
	underTier(t, r.tier, func() {
		underCache(r.cached, func() { rep = harness.Run(scs, opt) })
	})
	return rep
}

// underCache runs f with the build-cache layer on or off, restoring the
// prior state afterwards.
func underCache(on bool, f func()) {
	defer buildcache.SetEnabled(buildcache.SetEnabled(on))
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

// catalogGroups returns the distinct group names of reg, sorted.
func catalogGroups(reg *harness.Registry) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range reg.All() {
		if !seen[s.Group] {
			seen[s.Group] = true
			out = append(out, s.Group)
		}
	}
	sort.Strings(out)
	return out
}

// attackGroups are the groups whose every trial looks up its victim in
// the build cache.
var attackGroups = map[string]bool{"t1": true, "t1p": true, "cfi": true, "mc-aslr": true, "mc-canary": true}

// oracleSweep is one group swept under every row of oracleTable. A
// trial is two seeds of every cell, except in the fuzz groups, where one
// trial is a whole campaign.
type oracleSweep struct {
	group  string
	scs    []harness.Scenario
	trials int
	reps   map[string]*harness.Report // by row name
}

// oracleSweeps holds each group's sweep once it is made. The oracle's
// seven tests check the same sweeps, each on its own axis, so whichever
// runs first makes them. None of the seven is parallel, so the map
// needs no lock.
var oracleSweeps = map[string]*oracleSweep{}

// eachGroup runs check as a subtest on the sweep of every registered
// group.
func eachGroup(t *testing.T, check func(t *testing.T, s *oracleSweep)) {
	if testing.Short() {
		t.Skip("sweeps the whole catalog eleven times")
	}
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		t.Fatal(err)
	}
	for _, group := range catalogGroups(reg) {
		t.Run(group, func(t *testing.T) {
			s := oracleSweeps[group]
			if s == nil {
				s = &oracleSweep{group: group, scs: reg.Group(group), trials: 2, reps: map[string]*harness.Report{}}
				if group == "fuzz" || group == "fuzzp" {
					s.trials = 1
				}
				for _, r := range oracleTable {
					s.reps[r.name] = r.sweep(t, s.scs, s.trials)
				}
				oracleSweeps[group] = s
			}
			check(t, s)
		})
	}
}

// TestDifferentialCatalog checks the tier axis: the run at every tier
// reproduces the reference.
func TestDifferentialCatalog(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		s.sameReports(t, "step", "block", "production")
	})
}

// TestDifferentialCachedVsUncached checks the cache axis: the runs with
// the build cache off and on reproduce the reference, and observe the
// same but for the build cache's own counters.
func TestDifferentialCachedVsUncached(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		s.sameReports(t, "uncached", "production")
		s.sameObservations(t, "uncached",
			func(name string) bool { return strings.HasPrefix(name, "buildcache.") })
	})
}

// TestDifferentialWarmVsCold checks the warm axis: the runs with warm
// hooks stripped and kept reproduce the reference and observe the same
// but for the warm and cold counts. Every run without warm hooks
// restores nothing and loads every trial cold, and every run with them
// restores every trial of every cell that has a warm hook.
func TestDifferentialWarmVsCold(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		s.sameReports(t, "cold", "production")
		s.sameObservations(t, "cold",
			func(name string) bool { return name == "harness.warm_restores" || name == "harness.cold_loads" })
		warmCells := 0
		for _, sc := range s.scs {
			if sc.Warm != nil {
				warmCells++
			}
		}
		for _, r := range oracleTable {
			rep, warm := s.reps[r.name], 0
			if r.warm {
				warm = warmCells * s.trials
			}
			if rep.WarmRestores != warm || rep.ColdLoads != len(s.scs)*s.trials-warm {
				t.Errorf("%s: %d warm restores and %d cold loads, want %d and %d",
					r.name, rep.WarmRestores, rep.ColdLoads, warm, len(s.scs)*s.trials-warm)
			}
		}
	})
}

// TestBuildCacheCountersReconcile checks what every collected run
// publishes: the report's warm and cold counts, adding up to its
// trials, and build-cache counters only with the cache on, and then, on
// an attack group, both hits and misses.
func TestBuildCacheCountersReconcile(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		for _, r := range oracleTable {
			rep := s.reps[r.name]
			if rep.Telemetry == nil {
				continue
			}
			c := rep.Telemetry.File().Counters
			if c["harness.warm_restores"] != uint64(rep.WarmRestores) ||
				c["harness.cold_loads"] != uint64(rep.ColdLoads) ||
				c["harness.warm_restores"]+c["harness.cold_loads"] != c["harness.trials"] {
				t.Errorf("%s: published %d warm restores, %d cold loads and %d trials; the report counts %d and %d",
					r.name, c["harness.warm_restores"], c["harness.cold_loads"], c["harness.trials"],
					rep.WarmRestores, rep.ColdLoads)
			}
			for name := range c {
				if !r.cached && strings.HasPrefix(name, "buildcache.") {
					t.Errorf("%s: the build cache is off, yet %s is published", r.name, name)
				}
			}
			if r.cached && attackGroups[s.group] && (c["buildcache.hits"] == 0 || c["buildcache.misses"] == 0) {
				t.Errorf("%s: %d build-cache hits and %d misses, want both non-zero",
					r.name, c["buildcache.hits"], c["buildcache.misses"])
			}
		}
	})
}

// TestMetricsIdenticalAcrossJobs checks the width axis: the runs with
// one and three workers reproduce the reference and observe exactly the
// same, and the production run's metrics file is valid.
func TestMetricsIdenticalAcrossJobs(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		s.sameReports(t, "jobs=1", "production")
		s.sameObservations(t, "jobs=1", func(string) bool { return false })
		metrics, err := s.reps["production"].Telemetry.MetricsJSON()
		if err != nil {
			t.Fatal(err)
		}
		if err := telemetry.ValidateMetrics(metrics); err != nil {
			t.Errorf("production metrics file: %v", err)
		}
	})
}

// TestTelemetryDoesNotPerturbReport checks the observers axis: the runs
// with observers off and on reproduce the reference.
func TestTelemetryDoesNotPerturbReport(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		s.sameReports(t, "unobserved", "production")
	})
}

// TestGuestProfileEngineIndependent checks the profiled runs: each
// reproduces the reference, and all three fold the same profile, since
// the profiler pins execution to the stepping engine whatever tier and
// width a run asks for.
func TestGuestProfileEngineIndependent(t *testing.T) {
	eachGroup(t, func(t *testing.T, s *oracleSweep) {
		s.sameReports(t, "reference+profiler", "block+profiler", "production+profiler")
		ref := folded(t, s.reps["reference+profiler"].Telemetry)
		for _, name := range []string{"block+profiler", "production+profiler"} {
			if got := folded(t, s.reps[name].Telemetry); !bytes.Equal(got, ref) {
				t.Errorf("%s folded a different profile:\n%s\nreference+profiler:\n%s", name, got, ref)
			}
		}
		// The t3 isolation cells collect no telemetry, so they fold no profile.
		if len(ref) == 0 && s.group != "t3" {
			t.Error("the profiled runs sampled nothing")
		}
	})
}

// sameReports requires each named row to reproduce the reference.
func (s *oracleSweep) sameReports(t *testing.T, rows ...string) {
	t.Helper()
	for _, row := range rows {
		sameReport(t, row, s.reps[row], s.reps["reference"])
	}
}

// sameReport requires got to reproduce the reference report: the same
// result for every trial, and the same aggregate JSON byte for byte.
func sameReport(t *testing.T, label string, got, ref *harness.Report) {
	t.Helper()
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for si := range ref.Results {
		for ti, r := range ref.Results[si] {
			g := got.Results[si][ti]
			if g.Outcome != r.Outcome || g.Code != r.Code || g.Success != r.Success ||
				g.Detail != r.Detail || errText(g.Err) != errText(r.Err) {
				t.Errorf("%s: %s trial %d diverged: %s %d %v %q %q, reference %s %d %v %q %q",
					label, ref.Cells[si].Scenario, ti, g.Outcome, g.Code, g.Success, g.Detail, errText(g.Err),
					r.Outcome, r.Code, r.Success, r.Detail, errText(r.Err))
				return
			}
		}
	}
	gotJSON, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	refJSON, err := ref.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, refJSON) {
		t.Errorf("%s: report diverged:\n%s\nreference:\n%s", label, gotJSON, refJSON)
	}
}

// sameObservations requires the named row's histograms and event
// timelines to equal the production run's, and its counters too but for
// the names mayDiffer accepts. The timelines are compared trial by
// trial: the event-trace file is rendered from exactly these, and
// rendering a fuzz group's file costs more than sweeping the group.
func (s *oracleSweep) sameObservations(t *testing.T, label string, mayDiffer func(string) bool) {
	t.Helper()
	got, prod := s.reps[label], s.reps["production"]
	g, p := got.Telemetry.File(), prod.Telemetry.File()
	if !reflect.DeepEqual(g.Hists, p.Hists) {
		t.Errorf("%s: histograms differ from production:\n%v\nproduction:\n%v", label, g.Hists, p.Hists)
	}
	names := map[string]bool{}
	for name := range g.Counters {
		names[name] = true
	}
	for name := range p.Counters {
		names[name] = true
	}
	for name := range names {
		if g.Counters[name] != p.Counters[name] && !mayDiffer(name) {
			t.Errorf("%s: %s = %d, production %d", label, name, g.Counters[name], p.Counters[name])
		}
	}
	for si := range prod.Results {
		for ti := range prod.Results[si] {
			gs, ps := got.Results[si][ti].Telemetry, prod.Results[si][ti].Telemetry
			if (gs == nil) != (ps == nil) || gs != nil &&
				(!slices.Equal(gs.Events, ps.Events) || gs.Dropped != ps.Dropped) {
				t.Errorf("%s: %s trial %d recorded other events than production", label, prod.Cells[si].Scenario, ti)
				return
			}
		}
	}
}

func folded(t *testing.T, reg *telemetry.Registry) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}
