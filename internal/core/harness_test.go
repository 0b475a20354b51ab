package core

import (
	"bytes"
	"strings"
	"testing"

	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/kernel"
)

func TestRegisterScenariosCatalog(t *testing.T) {
	r := harness.NewRegistry()
	if err := RegisterScenarios(r); err != nil {
		t.Fatal(err)
	}
	attacks, configs := Attacks(), StandardConfigs()
	if got, want := len(r.Group("t1")), len(attacks)*len(configs); got != want {
		t.Fatalf("t1 cells %d, want %d", got, want)
	}
	if got, want := len(r.Group("t3")), len(IsolationMechanisms)*len(AttackerModels); got != want {
		t.Fatalf("t3 cells %d, want %d", got, want)
	}
	if got, want := len(r.Group("mc-aslr")), len(attacks); got != want {
		t.Fatalf("mc-aslr cells %d, want %d", got, want)
	}
	if len(r.Group("mc-canary")) == 0 {
		t.Fatal("no canary sweeps registered")
	}
	if _, ok := r.Lookup("t1/rop-chain/canary+dep+aslr"); !ok {
		t.Fatal("expected cell name missing — naming scheme changed?")
	}
	if got, want := len(r.Group("fuzz")), len(fuzz.Scenarios()); got != want || got == 0 {
		t.Fatalf("fuzz cells %d, want %d (all campaign cells registered)", got, want)
	}
	if _, ok := r.Lookup("fuzz/echo/none"); !ok {
		t.Fatal("fuzz campaign cell name missing — naming scheme changed?")
	}
	// Registering twice must fail loudly, not silently double the catalog.
	if err := RegisterScenarios(r); err == nil {
		t.Fatal("duplicate catalog registration accepted")
	}
}

// TestHarnessDeterminismAcrossJobs is the acceptance property: the same
// sweep aggregated from 1 worker and from many workers must serialize to
// byte-identical reports.
func TestHarnessDeterminismAcrossJobs(t *testing.T) {
	scs := []harness.Scenario{
		TrialScenario(Attacks()[0], Mitigations{ASLR: true}, true),
		TrialScenario(Attacks()[0], Mitigations{Canary: true, CanarySeed: 7, DEP: true}, true),
	}
	run := func(jobs int) []byte {
		rep := harness.Run(scs, harness.Options{Trials: 8, Jobs: jobs, BaseSeed: 99})
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	many := run(8)
	if !bytes.Equal(one, many) {
		t.Fatalf("jobs=1 vs jobs=8 reports differ:\n%s\nvs\n%s", one, many)
	}
}

// TestTrialMitigations pins the per-trial reseeding rule against its
// predicate: a config changes from trial to trial exactly when
// warmReseeds says so, the deployment label never changes, and a
// seeded canary never falls back to the predictable one (seed zero),
// which an unseeded canary keeps.
func TestTrialMitigations(t *testing.T) {
	configs := append(StandardConfigs(), ProfileGridConfigs()...)
	configs = append(configs, Mitigations{Canary: true}, Mitigations{ASLR: true, Profile: "inverted-locals"})
	for _, m := range configs {
		a, b := trialMitigations(m, 1), trialMitigations(m, 2)
		if (a != b) != warmReseeds(m) {
			t.Errorf("%+v: trials differ %v, warmReseeds %v", m, a != b, warmReseeds(m))
		}
		if a.String() != m.String() || a.Profile != m.Profile {
			t.Errorf("%+v: reseeding changed the deployment to %+v", m, a)
		}
		if z := trialMitigations(m, canaryMix); m.Canary && (z.CanarySeed == 0) != (m.CanarySeed == 0) {
			t.Errorf("%+v: canary seed %d at trial seed canaryMix", m, z.CanarySeed)
		}
	}
}

// TestASLRSweepViaHarness replaces the old 8-seed loop with a harness
// sweep: the nominal-layout exploit must fail for every randomized
// layout in the window.
func TestASLRSweepViaHarness(t *testing.T) {
	sc := aslrSweep(Attacks()[0], "") // stack-smash-inject, classic layout
	rep := harness.Run([]harness.Scenario{sc}, harness.Options{Trials: 16, Jobs: 4, BaseSeed: 1})
	c := rep.Cells[0]
	if c.Errors > 0 {
		t.Fatalf("sweep errors: %s", c.FirstError)
	}
	if c.Successes != 0 {
		t.Fatalf("exploit survived ASLR in %d/%d trials", c.Successes, c.Trials)
	}
}

// TestScenarioRerunsAreIndependent re-runs one Scenario value through
// core.Run twice: the loader clones the attacker, so the second run must
// see the same input as the first. That holds for a script and for the
// adaptive leak-assisted attacker, a state machine that must replay the
// whole leak-then-smash exchange rather than find its steps spent.
func TestScenarioRerunsAreIndependent(t *testing.T) {
	attacks := map[string]AttackSpec{}
	for _, a := range Attacks() {
		attacks[a.Name] = a
	}
	for _, tc := range []struct {
		attack string
		m      Mitigations
	}{
		{"stack-smash-inject", Mitigations{}},
		{"leak-assisted-ret2libc", Mitigations{}},
		{"leak-assisted-ret2libc", Mitigations{Canary: true, CanarySeed: 7}},
		{"leak-assisted-ret2libc", Mitigations{ASLR: true, ASLRSeed: 42}},
	} {
		s, err := attacks[tc.attack].Scenario(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		first, err := Run(s, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		second, err := Run(s, tc.m)
		if err != nil {
			t.Fatal(err)
		}
		if first.Outcome != Compromised || second.Outcome != first.Outcome {
			t.Errorf("%s/%v: rerun diverged: first %v, second %v", tc.attack, tc.m, first.Outcome, second.Outcome)
		}
	}
}

// TestUnbuildableVictimWarmOrCold: an attack cell whose victim does not
// compile reports the same error on every trial whether its warm hook
// serves the trials or the cold path does. The warm instance is built
// from its first trial's lookup, so that lookup's error must reach the
// trial instead of leaving a half-built instance behind.
func TestUnbuildableVictimWarmOrCold(t *testing.T) {
	a := AttackSpec{
		Name:   "unbuildable",
		Victim: "void main() { int x = ; }",
		Goal:   pwned,
		Build:  func(Recon, Mitigations) kernel.InputSource { return nil },
	}
	warm := attackCell("t1/unbuildable/dep", "t1", nil, a, Mitigations{DEP: true}, true)
	if warm.Warm == nil {
		t.Fatal("static cell carries no warm hook")
	}
	cold := warm
	cold.Warm = nil
	const trials = 4
	for _, jobs := range []int{1, 2} {
		opt := harness.Options{Trials: trials, Jobs: jobs, BaseSeed: 3}
		w, c := harness.Run([]harness.Scenario{warm}, opt), harness.Run([]harness.Scenario{cold}, opt)
		for ti := 0; ti < trials; ti++ {
			we, ce := w.Results[0][ti].Err, c.Results[0][ti].Err
			if we == nil || ce == nil || we.Error() != ce.Error() {
				t.Fatalf("jobs=%d trial %d: warm error %v, cold error %v, want the same error", jobs, ti, we, ce)
			}
			if !strings.Contains(we.Error(), "compile victim") {
				t.Fatalf("jobs=%d trial %d: error %q does not name the compile", jobs, ti, we)
			}
		}
		wj, _ := w.JSON()
		cj, _ := c.JSON()
		if !bytes.Equal(wj, cj) {
			t.Fatalf("jobs=%d: warm report\n%s\ncold report\n%s", jobs, wj, cj)
		}
	}
}
