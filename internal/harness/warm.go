package harness

// Warm per-worker trial instances. A sweep cell whose victim layout is
// trial-invariant (no per-trial ASLR or canary reseeding) pays the
// load-time cost once per (worker, cell): the first trial a worker runs
// of such a cell constructs a WarmInstance — load the victim, take a
// pristine snapshot — and every trial after that resets the process via
// the ~µs snapshot Restore instead of a fresh compile-link-load.
//
// Warm reuse is an optimization with the same determinism contract as
// the rest of the engine: a warm-served trial must produce the same
// TrialResult (and, when telemetry is on, the same metric snapshot) as
// the cold path. The scenario layer is responsible for attaching a
// WarmSpec only when it can prove that — the engine's job is the
// fallback: any cell without a spec, any worker whose New fails, and
// any instance that panics mid-trial runs cold.

// WarmSpec opts a scenario into per-worker warm process reuse.
type WarmSpec struct {
	// New constructs one warm instance: a runner that restores a
	// pristine snapshot of the cell's loaded victim per trial. It may
	// load and snapshot the victim itself, or leave that to the
	// instance's first trial. Called lazily, at most once per (worker,
	// cell). An error permanently disables warm reuse for that worker
	// — its trials fall back to the scenario's cold Run path.
	New func() (WarmInstance, error)
}

// WarmInstance runs trials against one reusable loaded process. It is
// owned by a single worker goroutine and never shared, so
// implementations need no locking.
type WarmInstance interface {
	// RunTrial restores the pristine snapshot and executes one trial.
	RunTrial(t Trial) TrialResult
}

// warmState is one worker's warm-instance table and tallies. Workers
// index tallies by their own id, so no locking is needed until the
// engine sums them after the pool joins.
type warmState struct {
	inst   map[int]WarmInstance // by scenario index; nil entry = New failed
	warmed int                  // trials served by Restore
	cold   int                  // trials served by a fresh cold load, or that built nothing to restore
}

// runUnit executes one (scenario, trial) unit, preferring the warm path
// when the scenario offers one and this worker's instance is healthy.
func (ws *warmState) runUnit(s Scenario, si int, t Trial) TrialResult {
	if s.Warm != nil {
		inst, tried := ws.inst[si]
		if !tried {
			var err error
			inst, err = s.Warm.New()
			if err != nil {
				inst = nil // not warm-safe: permanent cold fallback
			}
			ws.inst[si] = inst
		}
		if inst != nil {
			res, ok := runWarmTrial(inst, t)
			if ok {
				// A trial that failed to build its process restored
				// nothing.
				if res.Err != nil {
					ws.cold++
				} else {
					ws.warmed++
				}
				return res
			}
			// The instance panicked: its process state is suspect, so
			// discard it and run everything (this trial included) cold.
			ws.inst[si] = nil
		}
	}
	ws.cold++
	return runTrial(s, t)
}

// runWarmTrial invokes the warm instance, reporting ok=false on panic
// so the caller can discard the instance and retry cold.
func runWarmTrial(inst WarmInstance, t Trial) (res TrialResult, ok bool) {
	defer func() {
		if p := recover(); p != nil {
			ok = false
		}
	}()
	return inst.RunTrial(t), true
}
