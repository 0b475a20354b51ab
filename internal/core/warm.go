package core

import (
	"fmt"

	"softsec/internal/harness"
	"softsec/internal/kernel"
)

// Warm trial instances for attack cells whose victim is trial-invariant:
// the mitigation config carries no per-trial reseeding, so every cold
// trial would load the exact same binary at the exact same layout and
// differ only in the attacker and run state. A warm cell loads the bare
// victim once per worker, snapshots the pristine process, and serves
// each trial by Restore plus a freshly built attacker.
//
// Result equivalence with the cold path, piece by piece:
//
//   - layout/canary: the config is static (callers attach a spec only
//     to such cells), so the cold path's per-trial Load draws the same
//     layout and canary every time; Restore reproduces them from the
//     snapshot.
//   - input: every trial builds its scenario with the same counted
//     a.Scenario(m) call the cold path makes — one recon-cache hit plus
//     the attacker's payload — and arms that fresh attacker with
//     SetInput after the restore, as the cold Load arms its own clone.
//     Any attacker works, adaptive state machines included.
//   - CFI policy: installed once before the snapshot; the policy is
//     configuration, not run state, and Restore leaves it in place —
//     same as the cold path installing it after every load.
//   - telemetry: instruments attach fresh per trial in both paths. The
//     one asymmetry is the CPU's internal decode/block/trace caches,
//     which survive Restore (they are semantically transparent but
//     instrumented): telemetry trials therefore drop them via
//     ResetCaches before attaching, making every instrumented trial
//     start exactly as cold as a fresh load.

// warmCell is one worker's reusable loaded process for one cell.
type warmCell struct {
	a    AttackSpec
	m    Mitigations
	p    *kernel.Process
	snap *kernel.Snapshot
}

// warmCellSpec returns the harness warm hook for an attack cell with a
// static mitigation config. Callers are responsible for the static
// part — never attach one to a cell that reseeds m per trial.
func warmCellSpec(a AttackSpec, m Mitigations) *harness.WarmSpec {
	return &harness.WarmSpec{New: func() (harness.WarmInstance, error) {
		return newWarmCell(a, m)
	}}
}

// newWarmCell loads the cell's bare victim once, with no attacker and
// no reconnaissance, and snapshots it pristine. The build goes through
// the uncounted cache mode (cache.go): how many workers warm a cell is
// a scheduling artifact that must never move the deterministic
// build-cache counters.
func newWarmCell(a AttackSpec, m Mitigations) (*warmCell, error) {
	p, err := buildVictimVia(Scenario{Name: a.Name, Source: a.Victim}, m, false)
	if err != nil {
		return nil, err
	}
	if err := installCFI(p, m); err != nil {
		return nil, err
	}
	return &warmCell{a: a, m: m, p: p, snap: p.Snapshot()}, nil
}

// RunTrial implements harness.WarmInstance: build the trial's attacker,
// restore the pristine snapshot, arm, run, classify — the warm mirror
// of runTrialCell.
func (w *warmCell) RunTrial(t harness.Trial) harness.TrialResult {
	s, err := w.a.Scenario(w.m)
	if err != nil {
		return harness.TrialResult{Err: err}
	}
	p := w.p
	// Drop the previous trial's event/profiler hooks before restoring:
	// Restore emits a restore event and notifies the profiler, neither
	// of which belongs to the trial about to run.
	p.CPU.Events = nil
	p.CPU.Prof = nil
	if err := p.Restore(w.snap); err != nil {
		return harness.TrialResult{Err: fmt.Errorf("core: warm restore: %w", err)}
	}
	p.SetInput(s.Attacker)
	if t.Telemetry != nil {
		p.CPU.ResetCaches()
	}
	ins := kernel.AttachInstruments(p, t.Telemetry)
	st := p.Run()
	out := Classify(p, st, s.Goal)
	tr := harness.TrialResult{
		Outcome: out.String(),
		Code:    int(out),
		Success: out == Compromised,
	}
	if ins != nil {
		tr.Telemetry = ins.Snap(p, ins.SinceAttach(p))
	}
	return tr
}
