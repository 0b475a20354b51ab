package core

import (
	"fmt"

	"softsec/internal/buildcache"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/minc"
)

// The sweep engine re-runs each cell's victim hundreds of times with
// only the per-trial seeds varying, so one core.victim entry per content
// key holds what the seeds do not touch: the linked program and the
// attacker's nominal recon of it. Per-trial kernel.Load stays uncached:
// it is what re-randomizes ASLR layout and canary value. Every attack
// trial, warm or cold, makes exactly one counted lookup
// (AttackSpec.trial) and loads the program that lookup returned, so a
// run's hits plus misses equal its attack trials and its misses its
// distinct keys, at any -jobs width.

// victimKey is the full content identity of a victim entry: the victim
// source plus every mitigation field that reaches codegen (canary
// prologues, bounds checks, frame/segment geometry). Runtime-only
// mitigations (DEP, ASLR, shadow stack, seeds) deliberately do not
// appear — they act at load or execution time on the same artifact.
type victimKey struct {
	src     string
	canary  bool
	checked bool
	profile string
}

// victim is one cache entry. Every trial of the key loads the same
// Linked — kernel.Load never mutates it. reconErr stays apart from the
// build's error, so BuildVictim never depends on recon.
type victim struct {
	linked   *kernel.Linked
	prof     *layout.Profile
	recon    Recon
	reconErr error
}

var victims = buildcache.New[victimKey, *victim]("core.victim")

// lookupVictim is the one counted lookup of src's entry under m.
func lookupVictim(src string, m Mitigations) (*victim, error) {
	k := victimKey{src: src, canary: m.Canary, checked: m.Checked, profile: m.Profile}
	return victims.Do(k, func() (*victim, error) { return newVictim(k) })
}

// newVictim compiles k's source, links it with libc, and reads the
// attacker's recon off a load at the nominal layout. It must not call
// BuildVictim: that would look up k, this build's own in-flight key,
// and wait on it forever.
func newVictim(k victimKey) (*victim, error) {
	prof, err := layout.ByName(k.profile)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	img, err := minc.Compile("victim", k.src, minc.Options{Canary: k.canary, BoundsCheck: k.checked, Layout: prof})
	if err != nil {
		return nil, fmt.Errorf("core: compile victim: %w", err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		return nil, fmt.Errorf("core: link: %w", err)
	}
	v := &victim{linked: ld, prof: prof}
	// Recon happens on the attacker's machine, on a copy loaded under
	// the key's fields only: everything it reads — symbols, nominal
	// layout, gadgets — is independent of the runtime mitigations.
	p, err := v.load(Scenario{}, Mitigations{Checked: k.checked})
	if err == nil {
		v.recon, err = reconOf(p, prof, k.canary)
	}
	v.reconErr = err
	return v, nil
}

// load loads the entry's program under m's runtime mitigations, fed by
// s's attacker.
func (v *victim) load(s Scenario, m Mitigations) (*kernel.Process, error) {
	return kernel.Load(v.linked, kernel.Config{
		ShadowStack: m.ShadowStack,
		DEP:         m.DEP,
		ASLR:        m.ASLR,
		ASLRSeed:    m.ASLRSeed,
		CanarySeed:  m.CanarySeed,
		CheckedLibc: m.Checked,
		Input:       s.Attacker,
		MaxSteps:    s.MaxSteps,
		Profile:     v.prof,
	})
}

// reconFor is the entry's recon as an uncached probe under m would
// report it: the one seed-dependent field, the canary, is fixed up on
// the way out.
func (v *victim) reconFor(m Mitigations) (Recon, error) {
	if v.reconErr != nil {
		return Recon{}, v.reconErr
	}
	r := v.recon
	r.Canary = kernel.CanaryValue(m.CanarySeed)
	return r, nil
}
