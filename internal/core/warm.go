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
// victim once per worker, on its first trial, from the linked program
// that trial's victim lookup returned; it snapshots the pristine
// process and serves each trial by Restore plus a freshly built
// attacker. Warm construction looks nothing up itself, so how many
// workers warmed a cell never shows in the build-cache counters.
//
// Result equivalence with the cold path, piece by piece:
//
//   - layout/canary: the config is static (callers attach a spec only
//     to such cells), so the cold path's per-trial Load draws the same
//     layout and canary every time; Restore reproduces them from the
//     snapshot.
//   - input: every trial makes the cold path's one counted lookup
//     (AttackSpec.trial), builds its attacker from the recon, and arms
//     it with SetInput after the restore, as the cold Load arms its own
//     clone. Any attacker works, adaptive state machines included.
//   - CFI policy: installed once before the snapshot; the policy is
//     configuration, not run state, and Restore leaves it in place —
//     same as the cold path installing it after every load.
//   - telemetry: instruments attach fresh per trial in both paths. The
//     one asymmetry is the CPU's internal decode/block/trace caches,
//     which survive Restore (they are semantically transparent but
//     instrumented): telemetry trials therefore drop them via
//     ResetCaches before attaching, making every instrumented trial
//     start exactly as cold as a fresh load.
//   - errors: a lookup, load or CFI error fails the trial with the
//     cold path's error and leaves the instance unloaded.

// warmCell is one worker's reusable loaded process for one cell; p and
// snap stay nil until its first trial loads them.
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
		return &warmCell{a: a, m: m}, nil
	}}
}

// RunTrial implements harness.WarmInstance: look up the victim and
// build the trial's attacker, load and snapshot the bare victim on the
// first trial, then restore, arm and run — the warm mirror of
// runTrialCell.
func (w *warmCell) RunTrial(t harness.Trial) harness.TrialResult {
	s, v, err := w.a.trial(w.m)
	if err != nil {
		return harness.TrialResult{Err: err}
	}
	if w.p == nil {
		p, err := v.deploy(Scenario{}, w.m)
		if err != nil {
			return harness.TrialResult{Err: err}
		}
		w.p, w.snap = p, p.Snapshot()
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
	return trialResult(runLoaded(p, s.Goal, t.Telemetry))
}
