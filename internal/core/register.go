package core

import (
	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/layout"
	"softsec/internal/telemetry"
)

// RegisterScenarios populates a harness registry with every experiment
// cell the reproduction knows:
//
//   - t1/<attack>/<mitigation> — the Table-1 grid, with per-trial
//     re-randomization of ASLR layouts and canary values, so trial counts
//     turn the table's qualitative claims into measured success rates;
//   - t3/<mechanism>/<attacker> — the isolation grid of Section IV-A;
//   - cfi/<attack>/<level> — every hijack attack against the CFI
//     precision ladder (none, coarse, fine, fine+shadowstack), the
//     coarse-vs-fine bypass grid of internal/cfi;
//   - mc/aslr/<attack> — Monte-Carlo ASLR sweeps: the nominal-layout
//     exploit against a freshly randomized layout every trial (the paper's
//     "probabilistic countermeasure" claim is a statement about exactly
//     this distribution);
//   - mc/canary/<attack> — Monte-Carlo canary sweeps: a fresh secret
//     canary value every trial against the smashing attacks;
//   - fuzz/<victim>/<mitigation> — coverage-guided fuzzing campaigns
//     (internal/fuzz): each trial is an independent deterministic
//     campaign, and the cell measures how hard the mitigation stack
//     makes it to *discover* a crashing input, not whether a known
//     exploit works;
//   - t1p/<profile>/<attack>/<mitigation> — the profile-spanning matrix:
//     the attack catalog against a reduced mitigation ladder on *every*
//     layout profile, the grid where canary placement and local ordering
//     decide outcomes (see internal/layout);
//   - fuzzp/<profile>/<victim>/<mitigation> — the discovery-cost analogue
//     of t1p: short fuzzing campaigns per profile.
//
// It is RegisterScenariosFor with the classic profile.
func RegisterScenarios(r *harness.Registry) error {
	return RegisterScenariosFor(r, "")
}

// RegisterScenariosFor registers the same catalog with the named layout
// profile (empty = classic) baked into the profile-sensitive groups: t1,
// mc-aslr, mc-canary, and fuzz. Cell names do not change with the profile
// — the profile is platform identity, so per-trial seeds (derived from
// scenario names) stay comparable across profiles, and a sweep under
// another profile is "the same experiment on different hardware".
//
// The t3 and cfi groups stay classic: isolation and CFI policies are
// orthogonal to frame geometry, and their scenarios assert against
// classic-layout goldens. The profile-*spanning* groups t1p and fuzzp are
// always registered in full, regardless of the baked profile.
func RegisterScenariosFor(r *harness.Registry, profile string) error {
	if _, err := layout.ByName(profile); err != nil {
		return err
	}
	attacks := Attacks()
	configs := StandardConfigs()
	for i := range configs {
		configs[i].Profile = profile
	}
	for _, sc := range T1Scenarios(attacks, configs, true) {
		if err := r.Register(sc); err != nil {
			return err
		}
	}
	for _, sc := range IsolationScenarios() {
		if err := r.Register(sc); err != nil {
			return err
		}
	}
	for _, sc := range CFIScenarios() {
		if err := r.Register(sc); err != nil {
			return err
		}
	}
	for _, a := range attacks {
		if err := r.Register(aslrSweep(a, profile)); err != nil {
			return err
		}
	}
	// Canary sweeps only make sense for attacks that smash through a
	// canary-guarded frame.
	for _, a := range attacks {
		switch a.Name {
		case "stack-smash-inject", "return-to-libc", "rop-chain", "leak-assisted-ret2libc":
			if err := r.Register(canarySweep(a, profile)); err != nil {
				return err
			}
		}
	}
	for _, sc := range fuzz.ScenariosFor(profile) {
		if err := r.Register(sc); err != nil {
			return err
		}
	}
	for _, sc := range ProfileScenarios() {
		if err := r.Register(sc); err != nil {
			return err
		}
	}
	for _, sc := range fuzz.ProfileScenarios() {
		if err := r.Register(sc); err != nil {
			return err
		}
	}
	return nil
}

// ProfileGridConfigs is the reduced mitigation ladder of the t1p group:
// enough to expose where a profile changes an outcome (unprotected,
// canary, canary+dep) without multiplying the full six-column matrix by
// every profile.
func ProfileGridConfigs() []Mitigations {
	return []Mitigations{
		{},
		{Canary: true, CanarySeed: 7},
		{Canary: true, CanarySeed: 7, DEP: true},
	}
}

// ProfileScenarios builds the t1p grid: every attack × ProfileGridConfigs
// × every layout profile. The profile is part of the cell name — unlike
// the baked-profile groups, here it is the independent variable.
func ProfileScenarios() []harness.Scenario {
	var out []harness.Scenario
	for _, p := range layout.Profiles() {
		for _, a := range Attacks() {
			for _, cfg := range ProfileGridConfigs() {
				out = append(out, profileTrialScenario(a, cfg, p.Name))
			}
		}
	}
	return out
}

// profileTrialScenario is TrialScenario with the profile as an explicit
// grid dimension, under group "t1p".
func profileTrialScenario(a AttackSpec, cfg Mitigations, profile string) harness.Scenario {
	label := cfg.String()
	cfg.Profile = profile
	return attackCell("t1p/"+profile+"/"+a.Name+"/"+label, "t1p",
		map[string]string{"attack": a.Name, "mitigation": label, "profile": profile}, a, cfg, true)
}

// aslrSweep runs the attack against ASLR alone, with a fresh layout seed
// every trial. The interesting statistic is the survival rate — for a
// sound implementation it should be (essentially) zero.
func aslrSweep(a AttackSpec, profile string) harness.Scenario {
	return attackCell("mc/aslr/"+a.Name, "mc-aslr",
		map[string]string{"attack": a.Name, "mitigation": "aslr"},
		a, Mitigations{ASLR: true, Profile: profile}, true)
}

// canarySweep runs the attack against a canary whose secret value is
// re-drawn every trial (plus DEP, the deployment it ships in).
func canarySweep(a AttackSpec, profile string) harness.Scenario {
	return attackCell("mc/canary/"+a.Name, "mc-canary",
		map[string]string{"attack": a.Name, "mitigation": "canary+dep"},
		a, Mitigations{Canary: true, CanarySeed: 7, DEP: true, Profile: profile}, true)
}

// runTrialCell builds and runs one scenario instance from the trial's
// one victim lookup and converts the outcome into harness terms,
// collecting telemetry when spec asks.
func runTrialCell(a AttackSpec, m Mitigations, spec *telemetry.Spec) harness.TrialResult {
	s, v, err := a.trial(m)
	if err != nil {
		return harness.TrialResult{Err: err}
	}
	p, err := v.deploy(s, m)
	if err != nil {
		return harness.TrialResult{Err: err}
	}
	return trialResult(runLoaded(p, s.Goal, spec))
}

// trialResult is a classified run in harness terms.
func trialResult(res Result, snap *telemetry.Snap) harness.TrialResult {
	return harness.TrialResult{
		Outcome:   res.Outcome.String(),
		Code:      int(res.Outcome),
		Success:   res.Outcome == Compromised,
		Telemetry: snap,
	}
}
