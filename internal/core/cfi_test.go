package core

import (
	"testing"

	"softsec/internal/harness"
)

// TestCFIGridAcceptance pins the headline claims of the CFI grid:
//
//   - with no CFI, every hijack attack compromises the victim (the cells
//     run with no other mitigation);
//   - the jop-entry-reuse chain *bypasses coarse CFI* — every hop lands
//     on a legitimate function entry — as does the single-pointer
//     fnptr-hijack (its target, spawn_shell, is an entry too);
//   - every backward-edge hijack (smash/ret2libc/ROP/temporal) is caught
//     already by coarse CFI: gadget addresses and stack pointers are not
//     return sites;
//   - fine CFI (and fine+shadowstack) blocks every hijack attack;
//   - the data-only contrast row stays compromised at every level: CFI
//     polices control flow, not data.
func TestCFIGridAcceptance(t *testing.T) {
	type want map[string]Outcome
	wants := map[string]want{
		"stack-smash-inject":     {"none": Compromised, "coarse": Detected, "fine": Detected, "fine+shadowstack": Detected},
		"return-to-libc":         {"none": Compromised, "coarse": Detected, "fine": Detected, "fine+shadowstack": Detected},
		"rop-chain":              {"none": Compromised, "coarse": Detected, "fine": Detected, "fine+shadowstack": Detected},
		"leak-assisted-ret2libc": {"none": Compromised, "coarse": Detected, "fine": Detected, "fine+shadowstack": Detected},
		"temporal-uaf":           {"none": Compromised, "coarse": Detected, "fine": Detected, "fine+shadowstack": Detected},
		"fnptr-hijack":           {"none": Compromised, "coarse": Compromised, "fine": Detected, "fine+shadowstack": Detected},
		"jop-entry-reuse":        {"none": Compromised, "coarse": Compromised, "fine": Detected, "fine+shadowstack": Detected},
		"data-only":              {"none": Compromised, "coarse": Compromised, "fine": Compromised, "fine+shadowstack": Compromised},
	}

	scs := CFIScenarios()
	if len(scs) != len(wants)*len(CFILevels()) {
		t.Fatalf("grid has %d cells, want %d", len(scs), len(wants)*len(CFILevels()))
	}
	for _, sc := range scs {
		attack, level := sc.Meta["attack"], sc.Meta["mitigation"][len("cfi/"):]
		w, ok := wants[attack]
		if !ok {
			t.Errorf("unexpected attack row %q", attack)
			continue
		}
		r := sc.Run(harness.Trial{Index: 0, Seed: 1})
		if r.Err != nil {
			t.Errorf("%s: trial error: %v", sc.Name, r.Err)
			continue
		}
		if got := Outcome(r.Code); got != w[level] {
			t.Errorf("%s: outcome %v, want %v", sc.Name, got, w[level])
		}
	}
}

// TestCFICellsDeterministic: the CFI cells are deterministic — two trials
// with different seeds produce identical outcomes (the grid isolates
// precision, not randomness).
func TestCFICellsDeterministic(t *testing.T) {
	for _, sc := range CFIScenarios() {
		a := sc.Run(harness.Trial{Index: 0, Seed: 1})
		b := sc.Run(harness.Trial{Index: 1, Seed: 0x5eed})
		if a.Outcome != b.Outcome || a.Code != b.Code || a.Success != b.Success {
			t.Fatalf("%s: outcomes differ across seeds: %+v vs %+v", sc.Name, a, b)
		}
	}
}

// TestCFIBenignFnTableVictim: the dispatch-table victim with well-formed
// input runs Normal under every CFI level — the recovered label tables
// admit all of the program's own indirection.
func TestCFIBenignFnTableVictim(t *testing.T) {
	for _, lv := range CFILevels() {
		s := Scenario{
			Name:   "benign-fn-table",
			Source: victimFnTable,
			Goal:   shelled,
		}
		res, err := Run(s, cfiMitigations(lv))
		if err != nil {
			t.Fatalf("%s: %v", lv.Name, err)
		}
		if res.Outcome != Normal {
			t.Fatalf("%s: benign run classified %v (state %v, fault %v)",
				lv.Name, res.Outcome, res.State, res.Proc.CPU.Fault())
		}
		if string(res.Output) != "hello bye" {
			t.Fatalf("%s: benign output %q", lv.Name, res.Output)
		}
	}
}
