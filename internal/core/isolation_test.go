package core

import (
	"strings"
	"testing"
)

// expectT3 pins the paper's Section IV-A comparison: every mechanism stops
// the in-process machine-code attacker, but only the Protected Module
// Architecture also stops kernel malware ("... or even by malware in the
// kernel"). The VM row reflects "no protection against machine code
// attackers ... at lower layers"; the SFI row the host/module asymmetry.
var expectT3 = map[string]map[string]bool{ // mechanism -> attacker -> stolen?
	"none":        {"in-process": true, "kernel": true},
	"bytecode-vm": {"in-process": false, "kernel": true},
	"sfi":         {"in-process": false, "kernel": true},
	"capability":  {"in-process": false, "kernel": true},
	"pma":         {"in-process": false, "kernel": false},
}

func TestIsolationMatrix(t *testing.T) {
	rows, err := RunIsolationMatrixJobs(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("got %d cells, want 10", len(rows))
	}
	for _, r := range rows {
		want, ok := expectT3[r.Mechanism][r.Attacker]
		if !ok {
			t.Errorf("unexpected cell %s/%s", r.Mechanism, r.Attacker)
			continue
		}
		if r.SecretStolen != want {
			t.Errorf("%s vs %s attacker: stolen=%v, want %v (%s)",
				r.Mechanism, r.Attacker, r.SecretStolen, want, r.Note)
		}
	}
	out := RenderIsolation(rows)
	if !strings.Contains(out, "pma") || !strings.Contains(out, "STOLEN") {
		t.Fatalf("render:\n%s", out)
	}
}
