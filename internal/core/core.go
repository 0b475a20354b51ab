// Package core is the scenario engine of the reproduction: it runs victim
// programs under selectable countermeasure configurations against the
// paper's two attacker models and classifies the result.
//
// The package operationalizes the paper's security objective — "the
// compiled system should behave as specified in the source code" — as
// machine-checkable oracles: an attack succeeded only if a predicate over
// the final process state holds that source-level semantics rule out
// (attacker-chosen code ran, a secret left the process without
// authorization, a protected variable changed without the guarded path).
package core

import (
	"fmt"

	"softsec/internal/cpu"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/telemetry"
)

// Outcome classifies one scenario run.
type Outcome int

const (
	// Normal: clean exit, attacker goal not reached.
	Normal Outcome = iota
	// Compromised: the attacker's oracle predicate holds.
	Compromised
	// Detected: a deployed countermeasure caught the attack and aborted
	// (canary fail-fast, bounds violation, secure-compilation guard,
	// PMA access-control fault).
	Detected
	// Crashed: the program died without reaching the attacker's goal and
	// without an explicit detection — undefined behaviour petering out
	// (e.g. a wild jump under ASLR).
	Crashed
)

func (o Outcome) String() string {
	switch o {
	case Normal:
		return "normal"
	case Compromised:
		return "COMPROMISED"
	case Detected:
		return "detected"
	case Crashed:
		return "crashed"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// Mitigations selects the deployed exploit countermeasures of Section
// III-C1/C2.
type Mitigations struct {
	// Canary compiles stack canaries into the victim.
	Canary bool
	// DEP maps code r-x and data rw- (off = historical rwx everywhere).
	DEP bool
	// ASLR randomizes segment bases with ASLRSeed.
	ASLR     bool
	ASLRSeed int64
	// CanarySeed randomizes the canary value (zero = the predictable
	// default canary).
	CanarySeed int64
	// Checked compiles the bounds-checked dialect and turns on the
	// fortified libc (allocation-registry validation of read/write).
	Checked bool
	// ShadowStack enables CET-style hardware return-address protection —
	// the CFI-family follow-up to the paper's countermeasure arsenal.
	ShadowStack bool
	// CFI deploys label-table control-flow integrity over the loaded
	// victim ("coarse" or "fine", see internal/cfi); empty means none.
	// Installed by Run after loading — reconnaissance copies built with
	// BuildVictim stay unprotected, exactly as an attacker's offline
	// copy would be.
	CFI string
	// Profile names the machine layout profile (internal/layout) the
	// victim is compiled for and loaded on: frame geometry for the
	// compiler, segment placement for the loader. Empty means "classic"
	// (the Figure-1 layout). It is platform identity, not a mitigation,
	// so String() deliberately excludes it — profile-spanning scenario
	// names carry the profile as their own dimension.
	Profile string
}

// LayoutProfile resolves the named profile (empty = classic).
func (m Mitigations) LayoutProfile() (*layout.Profile, error) {
	return layout.ByName(m.Profile)
}

// String renders a compact label like "canary+dep+aslr".
func (m Mitigations) String() string {
	s := ""
	add := func(on bool, name string) {
		if on {
			if s != "" {
				s += "+"
			}
			s += name
		}
	}
	add(m.Canary, "canary")
	add(m.DEP, "dep")
	add(m.ASLR, "aslr")
	add(m.Checked, "checked")
	add(m.ShadowStack, "shadowstack")
	add(m.CFI != "", "cfi-"+m.CFI)
	if s == "" {
		return "none"
	}
	return s
}

// Oracle decides whether the attacker reached their goal.
type Oracle func(p *kernel.Process, st cpu.State) bool

// Scenario is one victim/attacker pairing.
type Scenario struct {
	Name string
	// Source is the victim program (MinC).
	Source string
	// Attacker feeds the victim's reads (the I/O attacker). Nil means no
	// input.
	Attacker kernel.InputSource
	// Goal is the success oracle.
	Goal Oracle
	// MaxSteps overrides the default instruction budget when non-zero.
	MaxSteps uint64
}

// Result is the classified outcome of a run.
type Result struct {
	Outcome Outcome
	State   cpu.State
	Exit    int32
	Output  []byte
	Proc    *kernel.Process
}

// BuildVictim compiles and links a scenario's program with the given
// mitigations, without running it. Attack builders use it to perform
// reconnaissance against their own copy of the binary (attackers know the
// software they attack; what ASLR hides is the *loaded* layout). The
// compile and link are one counted lookup of the content-keyed victim
// cache (see cache.go); only the load — where the per-trial
// randomization happens — runs every call.
func BuildVictim(s Scenario, m Mitigations) (*kernel.Process, error) {
	v, err := lookupVictim(s.Source, m)
	if err != nil {
		return nil, err
	}
	return v.load(s, m)
}

// Run executes the scenario under the mitigations and classifies it.
func Run(s Scenario, m Mitigations) (Result, error) {
	r, _, err := RunCollected(s, m, nil)
	return r, err
}

// RunCollected is Run with telemetry: when spec is non-nil, fresh
// instruments are attached to the victim after load (so per-trial
// metrics never bleed across trials) and the collected snapshot is
// returned alongside the result. A nil spec behaves exactly like Run
// and returns a nil snapshot.
func RunCollected(s Scenario, m Mitigations, spec *telemetry.Spec) (Result, *telemetry.Snap, error) {
	v, err := lookupVictim(s.Source, m)
	if err != nil {
		return Result{}, nil, err
	}
	p, err := v.deploy(s, m)
	if err != nil {
		return Result{}, nil, err
	}
	r, snap := runLoaded(p, s.Goal, spec)
	return r, snap, nil
}

// deploy loads the entry as a trial runs it: under m, fed by s's
// attacker, with m's CFI policy installed.
func (v *victim) deploy(s Scenario, m Mitigations) (*kernel.Process, error) {
	p, err := v.load(s, m)
	if err != nil {
		return nil, err
	}
	return p, installCFI(p, m)
}

// runLoaded is the tail of every run, cold or warm: attach fresh
// instruments when spec asks, run the loaded victim, classify, and snap
// the instruments.
func runLoaded(p *kernel.Process, goal Oracle, spec *telemetry.Spec) (Result, *telemetry.Snap) {
	ins := kernel.AttachInstruments(p, spec)
	st := p.Run()
	r := Result{
		Outcome: Classify(p, st, goal),
		State:   st,
		Exit:    p.CPU.ExitCode(),
		Output:  p.Output.Bytes(),
		Proc:    p,
	}
	var snap *telemetry.Snap
	if ins != nil {
		snap = ins.Snap(p, ins.SinceAttach(p))
	}
	return r, snap
}

// Classify maps a final process state to an Outcome. The goal predicate
// dominates: if the attacker reached their goal, the run is Compromised
// even if the process crashed afterwards.
func Classify(p *kernel.Process, st cpu.State, goal Oracle) Outcome {
	if goal != nil && goal(p, st) {
		return Compromised
	}
	switch st {
	case cpu.Exited, cpu.Halted:
		return Normal
	case cpu.Faulted:
		if kernel.CountermeasureFault(p.CPU.Fault()) {
			return Detected
		}
		return Crashed
	default: // StepLimit, Paused
		return Crashed
	}
}
