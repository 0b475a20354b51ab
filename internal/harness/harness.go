// Package harness is the parallel trial engine of the reproduction: it
// turns every experiment cell — an attack technique under a mitigation
// stack, an isolation mechanism against an attacker model, a Monte-Carlo
// ASLR or canary sweep — into a registered Scenario, and executes many
// independent trials of each across a worker pool.
//
// The paper's tables are claims about outcome *distributions*: ASLR only
// "works" across many randomized layouts, a canary only "detects" across
// many secret values. A single run answers neither. The harness gives
// every trial a deterministic seed derived as
//
//	seed(i) = baseSeed XOR fnv64a(scenarioName, i)
//
// so a 256-trial sweep is reproducible bit-for-bit, results do not depend
// on worker scheduling (each trial writes into its own pre-allocated
// slot), and -jobs 1 and -jobs N produce byte-identical reports.
package harness

import (
	"fmt"
	"hash/fnv"
	"sync"

	"softsec/internal/telemetry"
)

// Trial identifies one execution of a scenario: which scenario, which
// trial index, and the deterministic seed derived for it. Telemetry,
// when non-nil, asks the RunFunc to collect per-trial metrics and
// return them in TrialResult.Telemetry; scenarios that do not support
// collection may ignore it (the engine still counts their outcomes).
type Trial struct {
	Scenario  string
	Index     int
	Seed      int64
	Telemetry *telemetry.Spec
}

// TrialResult is the classified outcome of one trial.
type TrialResult struct {
	// Outcome is the scenario-defined label for this trial
	// ("COMPROMISED", "detected", "STOLEN", ...). Used for aggregation.
	Outcome string
	// Code carries the scenario's native outcome enum value, so callers
	// that know the scenario family can map back without string parsing.
	Code int
	// Success reports whether the attacker reached their goal — the
	// numerator of the cell's success rate.
	Success bool
	// Detail optionally explains how the outcome came about.
	Detail string
	// Err is an infrastructure failure (compile, link, recon), not an
	// attack outcome.
	Err error
	// Telemetry is the trial's metric snapshot when the Trial requested
	// collection and the scenario supports it; nil otherwise.
	Telemetry *telemetry.Snap
}

// RunFunc executes one trial. It must be safe to call from multiple
// goroutines: everything trial-specific is derived from the Trial
// argument, and all process state (memory, CPU, I/O cursors) must be
// owned by the call.
type RunFunc func(t Trial) TrialResult

// Scenario is one registered experiment cell.
type Scenario struct {
	// Name uniquely identifies the cell, conventionally
	// "group/subject/config" (e.g. "t1/rop-chain/canary+dep+aslr").
	Name string
	// Group buckets related cells for listing and rendering ("t1", "t3",
	// "mc-aslr", ...).
	Group string
	// Meta carries display attributes (attack name, mitigation label,
	// attacker model) into the aggregated report.
	Meta map[string]string
	// Run executes one trial.
	Run RunFunc
	// Warm, when non-nil, opts the cell into per-worker warm process
	// reuse: workers running several trials of the cell load the victim
	// once and reset it via snapshot Restore instead of a fresh load.
	// Scenario builders attach one only when the cell's victim layout
	// is trial-invariant and restoring is provably result-identical to
	// a cold load. Nil means every trial runs the cold Run path.
	Warm *WarmSpec
}

// TrialSeed derives the deterministic seed for trial i of the named
// scenario: baseSeed ⊕ fnv64a(name, i). Scenario name and trial index
// both feed the hash, so different cells sweep different seed sequences
// and no two trials of one cell collide.
func TrialSeed(baseSeed int64, scenario string, i int) int64 {
	h := fnv.New64a()
	h.Write([]byte(scenario))
	var idx [8]byte
	for b := 0; b < 8; b++ {
		idx[b] = byte(uint64(i) >> (8 * b))
	}
	h.Write(idx[:])
	return baseSeed ^ int64(h.Sum64())
}

// Registry holds the scenario catalog. Registration order is preserved:
// reports list cells in the order they were registered, which keeps
// rendered tables stable.
type Registry struct {
	mu     sync.RWMutex
	order  []string
	byName map[string]Scenario
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Scenario)}
}

// Register adds a scenario; duplicate names are an error.
func (r *Registry) Register(s Scenario) error {
	if s.Name == "" {
		return fmt.Errorf("harness: scenario with empty name")
	}
	if s.Run == nil {
		return fmt.Errorf("harness: scenario %q has no Run function", s.Name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[s.Name]; dup {
		return fmt.Errorf("harness: scenario %q registered twice", s.Name)
	}
	r.byName[s.Name] = s
	r.order = append(r.order, s.Name)
	return nil
}

// Lookup returns the scenario with the given name.
func (r *Registry) Lookup(name string) (Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.byName[name]
	return s, ok
}

// All returns every scenario in registration order.
func (r *Registry) All() []Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Scenario, 0, len(r.order))
	for _, n := range r.order {
		out = append(out, r.byName[n])
	}
	return out
}

// Group returns the scenarios of one group in registration order.
func (r *Registry) Group(g string) []Scenario {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Scenario
	for _, n := range r.order {
		if s := r.byName[n]; s.Group == g {
			out = append(out, s)
		}
	}
	return out
}
