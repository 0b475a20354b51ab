package core

import (
	"bytes"
	"testing"

	"softsec/internal/harness"
	"softsec/internal/layout"
)

// gridOutcome runs one (attack, mitigation, profile) cell with fixed
// seeds and returns the classified outcome.
func gridOutcome(t *testing.T, attack string, m Mitigations, profile string) Outcome {
	t.Helper()
	var spec AttackSpec
	for _, a := range Attacks() {
		if a.Name == attack {
			spec = a
		}
	}
	if spec.Name == "" {
		t.Fatalf("no attack %q in catalog", attack)
	}
	m.Profile = profile
	s, err := spec.Scenario(m)
	if err != nil {
		t.Fatalf("%s/%s: scenario: %v", profile, attack, err)
	}
	res, err := Run(s, m)
	if err != nil {
		t.Fatalf("%s/%s: run: %v", profile, attack, err)
	}
	return res.Outcome
}

// TestProfileGridAcceptance pins the cells where the layout profile —
// not the mitigation — decides the outcome. This is the point of the
// profile dimension: the same attack, under the same mitigation, is
// stopped on one layout and succeeds on another.
func TestProfileGridAcceptance(t *testing.T) {
	canary := Mitigations{Canary: true, CanarySeed: 7}

	// CVE-2023-4039's shape: the canary *placement* is what stops a
	// linear overflow. Classic places it between the locals and the
	// return address, so the smash trips it; canary-below-vla leaves the
	// overflow's path to the return address canary-free.
	if got := gridOutcome(t, "return-to-libc", canary, "classic"); got != Detected {
		t.Fatalf("classic return-to-libc under canary = %v, want Detected", got)
	}
	if got := gridOutcome(t, "return-to-libc", canary, "canary-below-vla"); got != Compromised {
		t.Fatalf("canary-below-vla return-to-libc under canary = %v, want Compromised", got)
	}
	if got := gridOutcome(t, "stack-smash-inject", canary, "canary-below-vla"); got != Compromised {
		t.Fatalf("canary-below-vla stack-smash-inject under canary = %v, want Compromised", got)
	}

	// Local reordering as a (fragile) defense: the data-only attack needs
	// is_admin *above* the overflowed name[] buffer. Reverse allocation
	// order puts the flag below the buffer, geometrically out of reach —
	// the attack dies with no mitigation deployed at all.
	if got := gridOutcome(t, "data-only", Mitigations{}, "classic"); got != Compromised {
		t.Fatalf("classic data-only unmitigated = %v, want Compromised", got)
	}
	if got := gridOutcome(t, "data-only", Mitigations{}, "inverted-locals"); got != Normal {
		t.Fatalf("inverted-locals data-only unmitigated = %v, want Normal", got)
	}
}

// TestClassicProfileIsDefault: naming the classic profile explicitly and
// leaving the profile empty must be the same platform, cell for cell —
// the refactor's no-regression contract over the whole T1 matrix.
func TestClassicProfileIsDefault(t *testing.T) {
	attacks := Attacks()
	def := RunMatrixJobs(attacks, StandardConfigs(), 4)
	named := StandardConfigs()
	for i := range named {
		named[i].Profile = "classic"
	}
	got := RunMatrixJobs(attacks, named, 4)
	for _, a := range def.Attacks {
		for _, mit := range def.Mitigations {
			d, n := def.Cells[a][mit], got.Cells[a][mit]
			if d.Outcome != n.Outcome || (d.Err == nil) != (n.Err == nil) {
				t.Errorf("%s/%s: default %v vs classic %v", a, mit, d.Outcome, n.Outcome)
			}
		}
	}
}

// TestProfileSweepDeterminism: the profile-spanning groups obey the same
// harness contract as every other group — jobs=1 and jobs=N serialize to
// byte-identical reports, with the profile riding in each cell's name.
func TestProfileSweepDeterminism(t *testing.T) {
	// A cross-profile slice of t1p: one geometry-sensitive attack and one
	// randomized config per profile, plus the divergent data-only cells.
	var scs []harness.Scenario
	for _, p := range layout.Profiles() {
		for _, a := range Attacks() {
			switch a.Name {
			case "return-to-libc", "data-only":
				scs = append(scs, profileTrialScenario(a, Mitigations{Canary: true, CanarySeed: 7}, p.Name))
			}
		}
	}
	run := func(jobs int) []byte {
		rep := harness.Run(scs, harness.Options{Trials: 4, Jobs: jobs, BaseSeed: 11})
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	one := run(1)
	many := run(6)
	if !bytes.Equal(one, many) {
		t.Fatalf("jobs=1 vs jobs=6 profile sweeps differ:\n%s\nvs\n%s", one, many)
	}
}

// TestProfileCatalogRegistration checks the registry grows the two
// profile-spanning groups with the expected cardinality and naming.
func TestProfileCatalogRegistration(t *testing.T) {
	r := harness.NewRegistry()
	if err := RegisterScenarios(r); err != nil {
		t.Fatal(err)
	}
	nprof := len(layout.Profiles())
	if got, want := len(r.Group("t1p")), nprof*len(Attacks())*len(ProfileGridConfigs()); got != want {
		t.Fatalf("t1p cells %d, want %d", got, want)
	}
	if got := len(r.Group("fuzzp")); got == 0 || got%nprof != 0 {
		t.Fatalf("fuzzp cells %d, want a positive multiple of %d", got, nprof)
	}
	for _, name := range []string{
		"t1p/classic/return-to-libc/canary",
		"t1p/canary-below-vla/return-to-libc/canary",
		"t1p/inverted-locals/data-only/none",
		"fuzzp/canary-below-vla/echo/canary",
	} {
		if _, ok := r.Lookup(name); !ok {
			t.Fatalf("expected cell %q missing — profile naming scheme changed?", name)
		}
	}
	// An unknown profile must be rejected before anything registers.
	if err := RegisterScenariosFor(harness.NewRegistry(), "martian"); err == nil {
		t.Fatal("RegisterScenariosFor accepted an unknown profile")
	}
}
