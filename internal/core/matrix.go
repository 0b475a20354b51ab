package core

import (
	"fmt"
	"strings"

	"softsec/internal/harness"
)

// StandardConfigs are the countermeasure columns of the T1 matrix: from
// the unprotected historical platform through today's default stack
// (canary+DEP+ASLR) to the checked dialect of Section III-C2.
func StandardConfigs() []Mitigations {
	return []Mitigations{
		{},
		{Canary: true, CanarySeed: 7},
		{DEP: true},
		{ASLR: true, ASLRSeed: 42},
		{Canary: true, CanarySeed: 7, DEP: true, ASLR: true, ASLRSeed: 42},
		{Checked: true, DEP: true},
	}
}

// canaryMix decorrelates the canary seed from the ASLR seed when both
// derive from the same per-trial seed.
const canaryMix = int64(0x5eed_caba_11ed_c0de)

// nonzeroSeed keeps a derived seed away from zero, which the kernel
// treats as "use the predictable default canary" — a semantic a random
// sweep must never hit by accident.
func nonzeroSeed(s int64) int64 {
	if s == 0 {
		return 1
	}
	return s
}

// TrialScenario wraps one (attack, mitigation) cell as a harness
// scenario. When perTrialSeeds is set, each trial re-randomizes what the
// config randomizes (see trialMitigations). Deterministic configs simply
// repeat, which is what makes success *rates* meaningful for the
// randomized ones.
func TrialScenario(a AttackSpec, cfg Mitigations, perTrialSeeds bool) harness.Scenario {
	label := cfg.String()
	return attackCell("t1/"+a.Name+"/"+label, "t1",
		map[string]string{"attack": a.Name, "mitigation": label}, a, cfg, perTrialSeeds)
}

// attackCell builds the harness scenario of one attack cell: every trial
// runs attack a under m, redrawn from the trial seed by trialMitigations
// when reseed is set. A cell whose effective config never changes across
// trials — no reseeding at all, or a config the reseeding rule leaves
// untouched — always loads the same victim at the same layout, so
// workers may serve its trials from a warm snapshot.
func attackCell(name, group string, meta map[string]string, a AttackSpec, m Mitigations, reseed bool) harness.Scenario {
	sc := harness.Scenario{
		Name:  name,
		Group: group,
		Meta:  meta,
		Run: func(t harness.Trial) harness.TrialResult {
			if reseed {
				return runTrialCell(a, trialMitigations(m, t.Seed), t.Telemetry)
			}
			return runTrialCell(a, m, t.Telemetry)
		},
	}
	if !reseed || !warmReseeds(m) {
		sc.Warm = warmCellSpec(a, m)
	}
	return sc
}

// trialMitigations is the per-trial reseeding rule: a trial redraws
// what m randomizes from its seed — the ASLR layout, and the canary
// value when m uses an unpredictable canary (CanarySeed != 0; a zero
// seed deliberately models the predictable default canary and is kept).
func trialMitigations(m Mitigations, seed int64) Mitigations {
	if m.ASLR {
		m.ASLRSeed = seed
	}
	if m.Canary && m.CanarySeed != 0 {
		m.CanarySeed = nonzeroSeed(seed ^ canaryMix)
	}
	return m
}

// warmReseeds reports whether trialMitigations redraws m every trial —
// the condition that disqualifies warm reuse.
func warmReseeds(m Mitigations) bool {
	return m.ASLR || (m.Canary && m.CanarySeed != 0)
}

// T1Scenarios builds the full attack × mitigation grid as harness
// scenarios, in row-major order.
func T1Scenarios(attacks []AttackSpec, configs []Mitigations, perTrialSeeds bool) []harness.Scenario {
	var out []harness.Scenario
	for _, a := range attacks {
		for _, cfg := range configs {
			out = append(out, TrialScenario(a, cfg, perTrialSeeds))
		}
	}
	return out
}

// Cell is one matrix entry.
type Cell struct {
	Attack     string
	Mitigation string
	Outcome    Outcome
	Err        error
}

// Matrix is the result grid of attacks × mitigation configurations.
type Matrix struct {
	Attacks     []string
	Mitigations []string
	Cells       map[string]map[string]Cell // attack -> mitigation -> cell
}

// RunMatrixJobs executes the matrix with the configured seeds (one trial
// per cell), spreading cells across a harness worker pool of the given
// width. Results are independent of jobs.
func RunMatrixJobs(attacks []AttackSpec, configs []Mitigations, jobs int) *Matrix {
	m := &Matrix{Cells: make(map[string]map[string]Cell)}
	for _, cfg := range configs {
		m.Mitigations = append(m.Mitigations, cfg.String())
	}
	for _, a := range attacks {
		m.Attacks = append(m.Attacks, a.Name)
		m.Cells[a.Name] = make(map[string]Cell)
	}
	scenarios := T1Scenarios(attacks, configs, false)
	rep := harness.Run(scenarios, harness.Options{Trials: 1, Jobs: jobs})
	for i, sc := range scenarios {
		r := rep.Results[i][0]
		cell := Cell{
			Attack:     sc.Meta["attack"],
			Mitigation: sc.Meta["mitigation"],
			Outcome:    Outcome(r.Code),
			Err:        r.Err,
		}
		m.Cells[cell.Attack][cell.Mitigation] = cell
	}
	return m
}

// Render formats the matrix as an aligned text table (the reproduction's
// T1/T3 artifacts).
func (m *Matrix) Render() string {
	var b strings.Builder
	w := 0
	for _, a := range m.Attacks {
		if len(a) > w {
			w = len(a)
		}
	}
	w = max(w, len("attack \\ defense"))
	fmt.Fprintf(&b, "%-*s", w+2, "attack")
	for _, mit := range m.Mitigations {
		fmt.Fprintf(&b, " | %-16s", mit)
	}
	b.WriteString("\n")
	for _, a := range m.Attacks {
		fmt.Fprintf(&b, "%-*s", w+2, a)
		for _, mit := range m.Mitigations {
			c := m.Cells[a][mit]
			val := c.Outcome.String()
			if c.Err != nil {
				val = "ERROR"
			}
			fmt.Fprintf(&b, " | %-16s", val)
		}
		b.WriteString("\n")
	}
	return b.String()
}
