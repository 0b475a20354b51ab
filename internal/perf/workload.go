package perf

import (
	"fmt"
	"slices"
	"strings"

	"softsec/internal/core"
	"softsec/internal/fuzz"
	"softsec/internal/harness"
)

// Workload is one named benchmark input: the registered sweep cells of
// some scenario groups, run with a fixed trial count per cell and a fixed
// worker-pool width.
type Workload struct {
	Name   string
	Why    string
	Groups []string // harness scenario groups, in registration order
	Trials int      // trials per cell
	Jobs   int      // harness worker-pool width
}

// The budgets keep one rep between 1 and 1.7 s on a 2-CPU host, so a run
// of the default 22 s times a dozen reps or more of every workload.
var workloads = []Workload{
	{Name: "t1_sweep", Groups: []string{"t1"}, Trials: 500, Jobs: 1,
		Why: "the attacklab grid at one worker: about 45% warm-restored and 55% cold-loaded trials, so every pipeline stage runs"},
	{Name: "t1_sweep_j2", Groups: []string{"t1"}, Trials: 500, Jobs: 2,
		Why: "t1_sweep with two workers: pool scheduling, singleflight and per-worker warm builds cost only here; its report must equal t1_sweep's"},
	{Name: "aslr_sweep", Groups: []string{"mc-aslr", "mc-canary"}, Trials: 1000, Jobs: 1,
		Why: "every trial is reseeded, so every trial is a recon cache hit plus kernel.Load of a fresh layout; warm restore does nothing"},
	{Name: "cfi_warm", Groups: []string{"cfi"}, Trials: 3000, Jobs: 1,
		Why: "about 88% of trials are warm restores under a CFI policy, so restore and policy-checked execution dominate and Load is nearly absent"},
	{Name: "fuzz_campaigns", Groups: []string{"fuzz"}, Trials: 16, Jobs: 1,
		Why: "1,500-exec campaigns: hot code in the trace tier, a restore per exec, mutation and coverage; core and buildcache do almost nothing"},
}

// golden holds the sha256 of Report.JSON() for seed 1 of every workload
// at its full size. t1_sweep_j2 shares t1_sweep's: a report never
// depends on the worker count.
var golden = map[string]string{
	"t1_sweep":       "14c0d0fb87bd1de6646a59b0d06574a259c8a116320a6086d20fbb4c7da04b73",
	"t1_sweep_j2":    "14c0d0fb87bd1de6646a59b0d06574a259c8a116320a6086d20fbb4c7da04b73",
	"aslr_sweep":     "c12aed67f3c4b59c76c8cb3f5a833daec0f4ab697182a37d0d662267e384ba14",
	"cfi_warm":       "6ec538ba560fad6537092cd39409ab185bf12aae93542c8f90b2fdb18edaaf5f",
	"fuzz_campaigns": "a908164fcc5efe9e201fa6d666fb406796dd14feda6aa8099f64343f6ac8b2cc",
}

// goldenSeed is the seed the golden digests were taken at.
const goldenSeed = 1

// Workloads returns the benchmark's workloads in their fixed order.
func Workloads() []Workload { return slices.Clone(workloads) }

// Lookup returns the named workload.
func Lookup(name string) (Workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return Workload{}, false
}

// cell is one scenario of a workload together with what the replica
// needs to rebuild its trials from public API.
type cell struct {
	sc harness.Scenario

	// Attack cells: the attack and its mitigations before per-trial
	// reseeding.
	attack core.AttackSpec
	base   core.Mitigations
	// aslrPerTrial: the cell draws a layout from the trial seed
	// (ASLRSeed = harness.TrialSeed). canaryPerTrial: it draws a canary
	// value from the trial seed through private state, so the replica
	// can match the shape of its trials but not their outcomes.
	aslrPerTrial, canaryPerTrial bool

	// Fuzz cells: the campaign config, all but its seed.
	campaign *fuzz.Config
}

// mitigations returns the mitigations trial seed of an attack cell runs
// under. exact is false for cells that re-draw their canary; the config
// returned then carries a stand-in canary seed of the same kind and
// serves only to time a trial of the same shape.
func (c *cell) mitigations(seed int64) (m core.Mitigations, exact bool) {
	m = c.base
	if c.aslrPerTrial {
		m.ASLRSeed = seed
	}
	if c.canaryPerTrial {
		m.CanarySeed = seed | 1
		return m, false
	}
	return m, true
}

// cells builds the workload's scenarios from the catalog the command-line
// tools register, so the benchmark runs exactly what attacklab runs.
func (w Workload) cells() ([]cell, error) {
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		return nil, fmt.Errorf("perf: register scenarios: %w", err)
	}
	var out []cell
	for _, g := range w.Groups {
		scs := reg.Group(g)
		if len(scs) == 0 {
			return nil, fmt.Errorf("perf: workload %s: group %q has no cells", w.Name, g)
		}
		for _, sc := range scs {
			c, err := newCell(g, sc)
			if err != nil {
				return nil, fmt.Errorf("perf: workload %s: cell %s: %w", w.Name, sc.Name, err)
			}
			out = append(out, c)
		}
	}
	return out, nil
}

func scenarios(cs []cell) []harness.Scenario {
	out := make([]harness.Scenario, len(cs))
	for i := range cs {
		out[i] = cs[i].sc
	}
	return out
}

// newCell recovers a cell's per-trial configuration from its group and
// display metadata, following each group's documented seeding rule (see
// core.RegisterScenarios).
func newCell(group string, sc harness.Scenario) (cell, error) {
	c := cell{sc: sc}
	label := sc.Meta["mitigation"]
	if group == "fuzz" {
		cfg, err := campaignConfig(sc.Meta["victim"], label)
		if err != nil {
			return cell{}, err
		}
		c.campaign = &cfg
		return c, nil
	}
	attacks := core.Attacks()
	i := slices.IndexFunc(attacks, func(a core.AttackSpec) bool { return a.Name == sc.Meta["attack"] })
	if i < 0 {
		return cell{}, fmt.Errorf("unknown attack %q", sc.Meta["attack"])
	}
	c.attack = attacks[i]
	switch group {
	case "t1":
		configs := core.StandardConfigs()
		j := slices.IndexFunc(configs, func(m core.Mitigations) bool { return m.String() == label })
		if j < 0 {
			return cell{}, fmt.Errorf("unknown t1 mitigation %q", label)
		}
		c.base = configs[j]
		c.aslrPerTrial = c.base.ASLR
		c.canaryPerTrial = c.base.Canary && c.base.CanarySeed != 0
	case "mc-aslr":
		c.base = core.Mitigations{ASLR: true}
		c.aslrPerTrial = true
	case "mc-canary":
		c.base = core.Mitigations{Canary: true, DEP: true}
		c.canaryPerTrial = true
	case "cfi":
		lv, ok := core.CFILevelByName(strings.TrimPrefix(label, "cfi/"))
		if !ok {
			return cell{}, fmt.Errorf("unknown CFI level %q", label)
		}
		c.base = core.Mitigations{ShadowStack: lv.ShadowStack}
		if lv.Enabled {
			c.base.CFI = lv.Precision.String()
		}
	default:
		return cell{}, fmt.Errorf("group %q is not benchmarked", group)
	}
	return c, nil
}

// campaignConfig rebuilds a fuzz cell's campaign config from its victim
// name and mitigation label.
func campaignConfig(victim, label string) (fuzz.Config, error) {
	cfg := fuzz.Config{MaxExecs: fuzz.ScenarioExecs}
	for _, v := range fuzz.Victims() {
		if v.Name == victim {
			cfg.Name, cfg.Source = v.Name, v.Source
		}
	}
	if cfg.Source == "" {
		return fuzz.Config{}, fmt.Errorf("unknown fuzz victim %q", victim)
	}
	if label != "none" {
		for _, tok := range strings.Split(label, "+") {
			switch tok {
			case "canary":
				cfg.Canary = true
			case "dep":
				cfg.DEP = true
			case "aslr":
				cfg.ASLR = true
			case "checked":
				cfg.Checked = true
			case "shadowstack":
				cfg.ShadowStack = true
			default:
				prec, ok := strings.CutPrefix(tok, "cfi-")
				if !ok {
					return fuzz.Config{}, fmt.Errorf("unknown mitigation %q in %q", tok, label)
				}
				cfg.CFI = prec
			}
		}
	}
	if got := cfg.MitLabel(); got != label {
		return fuzz.Config{}, fmt.Errorf("mitigation label %q rebuilds as %q", label, got)
	}
	return cfg, nil
}
