package core

import (
	"fmt"

	"softsec/internal/cfi"
	"softsec/internal/harness"
	"softsec/internal/kernel"
)

// The CFI grid: the paper's code-reuse chapter closes with control-flow
// integrity as the principled countermeasure, and the literature's core
// finding is that its value hangs on *precision*. These cells measure
// exactly that cliff: every hijack attack of the catalog against four
// deployments — no CFI, coarse label tables, fine (address-taken target
// sets), and fine plus the hardware shadow stack for exact backward
// edges. The headline cell is cfi/jop-entry-reuse/coarse: a function-
// reuse chain that hops only through legitimate entries, sailing through
// coarse CFI and dying on fine.

// CFILevel is one precision deployment of the CFI grid.
type CFILevel struct {
	// Name labels the cell column ("none", "coarse", "fine",
	// "fine+shadowstack").
	Name string
	// Enabled installs a cfi.Policy on the loaded victim.
	Enabled   bool
	Precision cfi.Precision
	// ShadowStack additionally enables the CPU's exact backward-edge
	// protection (the fine+shadowstack deployment).
	ShadowStack bool
}

// CFILevels returns the four precision deployments of the CFI grid.
func CFILevels() []CFILevel {
	return []CFILevel{
		{Name: "none"},
		{Name: "coarse", Enabled: true, Precision: cfi.Coarse},
		{Name: "fine", Enabled: true, Precision: cfi.Fine},
		{Name: "fine+shadowstack", Enabled: true, Precision: cfi.Fine, ShadowStack: true},
	}
}

// CFILevelByName resolves a level label (as listed by CFILevels).
func CFILevelByName(name string) (CFILevel, bool) {
	for _, lv := range CFILevels() {
		if lv.Name == name {
			return lv, true
		}
	}
	return CFILevel{}, false
}

// CFIPrecisionByName maps a Mitigations.CFI label to a cfi.Precision.
func CFIPrecisionByName(name string) (cfi.Precision, bool) {
	switch name {
	case "coarse":
		return cfi.Coarse, true
	case "fine":
		return cfi.Fine, true
	}
	return 0, false
}

// InstallCFI recovers the control-flow graph of a loaded victim and
// installs a label-table CFI policy at the given precision. Run and the
// warm cells call it on every victim whose Mitigations.CFI names a
// precision; reconnaissance copies stay unprotected.
func InstallCFI(p *kernel.Process, prec cfi.Precision) error {
	g, err := cfi.Recover(p)
	if err != nil {
		return fmt.Errorf("core: cfi recovery: %w", err)
	}
	p.CPU.Policy = cfi.NewPolicy(g, prec)
	return nil
}

// installCFI installs the policy m.CFI names on a loaded victim; an
// empty name deploys none.
func installCFI(p *kernel.Process, m Mitigations) error {
	if m.CFI == "" {
		return nil
	}
	prec, ok := CFIPrecisionByName(m.CFI)
	if !ok {
		return fmt.Errorf("core: unknown CFI precision %q (want coarse or fine)", m.CFI)
	}
	return InstallCFI(p, prec)
}

// CFIHijackAttacks returns the catalog subset whose success requires a
// hijacked control transfer — the attacks forward- and backward-edge CFI
// is expected to stop (at sufficient precision).
func CFIHijackAttacks() []AttackSpec {
	hijack := map[string]bool{
		"stack-smash-inject":     true,
		"return-to-libc":         true,
		"rop-chain":              true,
		"leak-assisted-ret2libc": true,
		"fnptr-hijack":           true,
		"temporal-uaf":           true,
		"jop-entry-reuse":        true,
	}
	var out []AttackSpec
	for _, a := range Attacks() {
		if hijack[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// cfiContrastAttacks are non-hijack rows kept in the grid to document
// what CFI cannot help with: attacks that never corrupt a code pointer.
func cfiContrastAttacks() []AttackSpec {
	var out []AttackSpec
	for _, a := range Attacks() {
		if a.Name == "data-only" {
			out = append(out, a)
		}
	}
	return out
}

// CFIScenarios builds the cfi/<attack>/<level> grid as harness
// scenarios. The cells run at the nominal layout with no other
// mitigation deployed (beyond the shadow stack of the fine+shadowstack
// column), so each outcome isolates what CFI precision alone buys.
func CFIScenarios() []harness.Scenario {
	var out []harness.Scenario
	attacks := append(CFIHijackAttacks(), cfiContrastAttacks()...)
	for _, a := range attacks {
		for _, lv := range CFILevels() {
			// CFI deployments are fully deterministic (no ASLR, no
			// canary), so trials repeat and every cell is warm-eligible;
			// trial counts pin stability, not sample randomness.
			out = append(out, attackCell("cfi/"+a.Name+"/"+lv.Name, "cfi",
				map[string]string{"attack": a.Name, "mitigation": "cfi/" + lv.Name},
				a, cfiMitigations(lv), false))
		}
	}
	return out
}

// cfiMitigations is the deployment a CFI-grid level runs under.
func cfiMitigations(lv CFILevel) Mitigations {
	m := Mitigations{ShadowStack: lv.ShadowStack}
	if lv.Enabled {
		m.CFI = lv.Precision.String()
	}
	return m
}
