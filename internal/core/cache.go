package core

import (
	"fmt"

	"softsec/internal/asm"
	"softsec/internal/buildcache"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/minc"
)

// The sweep engine re-runs each cell's victim hundreds of times with
// only the per-trial seeds varying, so the toolchain artifacts — the
// compiled image, the linked Linked, the attacker's reconnaissance —
// are memoized here under content keys. Per-trial kernel.Load stays
// uncached: it is what re-randomizes ASLR layout and canary value.
//
// Two access modes keep the cache counters deterministic (see the
// buildcache package comment):
//
//   - counted — every trial's path, warm or cold. Lookups go through
//     Do, so the published hit/miss counters reflect exactly the trials
//     that ran: each attack trial makes one recon lookup (a.Scenario),
//     a cold trial also makes the compile and link lookups of its
//     victim build, and a recon miss makes those of its probe build.
//   - uncounted — worker-local warm-instance construction of the bare
//     victim (warm.go). Builds reuse completed entries via stat-free
//     Peek and otherwise build directly without populating the cache,
//     so how many workers warmed a cell (a scheduling artifact) never
//     shows in the counters.

// victimKey is the full content identity of a compile/link/recon pass:
// the victim source plus every mitigation field that reaches codegen
// (canary prologues, bounds checks, frame/segment geometry). Runtime-
// only mitigations (DEP, ASLR, shadow stack, seeds) deliberately do not
// appear — they act at load or execution time on the same artifact.
type victimKey struct {
	src     string
	canary  bool
	checked bool
	profile string
}

var (
	compileCache = buildcache.New[victimKey, *asm.Image]("core.compile", 256)
	linkCache    = buildcache.New[victimKey, *kernel.Linked]("core.link", 256)
	reconCache   = buildcache.New[victimKey, Recon]("core.recon", 256)
)

// via is one cached lookup in either access mode.
func via[V any](c *buildcache.Cache[victimKey, V], key victimKey, counted bool, build func() (V, error)) (V, error) {
	if counted {
		return c.Do(key, build)
	}
	if v, ok := c.Peek(key); ok {
		return v, nil
	}
	return build()
}

// linkedFor returns the scenario's immutable linked program and layout
// profile under the given mitigations. The Linked is shared across
// trials — kernel.Load never mutates it — so caching it is safe.
// Scenarios with ExtraModules carry runtime-constructed images with no
// content identity; their link (but not the victim compile) bypasses
// the cache.
func linkedFor(s Scenario, m Mitigations, counted bool) (*kernel.Linked, *layout.Profile, error) {
	prof, err := m.LayoutProfile()
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	key := victimKey{src: s.Source, canary: m.Canary, checked: m.Checked, profile: m.Profile}
	img, err := via(compileCache, key, counted, func() (*asm.Image, error) {
		img, err := minc.Compile("victim", s.Source, minc.Options{Canary: m.Canary, BoundsCheck: m.Checked, Layout: prof})
		if err != nil {
			return nil, fmt.Errorf("core: compile victim: %w", err)
		}
		return img, nil
	})
	if err != nil {
		return nil, nil, err
	}
	link := func(extra ...*asm.Image) (*kernel.Linked, error) {
		ld, err := kernel.Link(append([]*asm.Image{kernel.Libc(), img}, extra...)...)
		if err != nil {
			return nil, fmt.Errorf("core: link: %w", err)
		}
		return ld, nil
	}
	if len(s.ExtraModules) > 0 {
		ld, err := link(s.ExtraModules...)
		return ld, prof, err
	}
	ld, err := via(linkCache, key, counted, func() (*kernel.Linked, error) { return link() })
	if err != nil {
		return nil, nil, err
	}
	return ld, prof, nil
}

// buildVictimVia is BuildVictim with an explicit cache access mode.
func buildVictimVia(s Scenario, m Mitigations, counted bool) (*kernel.Process, error) {
	ld, prof, err := linkedFor(s, m, counted)
	if err != nil {
		return nil, err
	}
	cfg := kernel.Config{
		ShadowStack: m.ShadowStack,
		DEP:         m.DEP,
		ASLR:        m.ASLR,
		ASLRSeed:    m.ASLRSeed,
		CanarySeed:  m.CanarySeed,
		CheckedLibc: m.Checked,
		Input:       s.Attacker,
		MaxSteps:    s.MaxSteps,
		Profile:     prof,
	}
	return kernel.Load(ld, cfg)
}

// ReconNominal builds attacker knowledge by loading the attacker's own
// copy of the victim at the nominal layout and reading symbols — exactly
// what an attacker with the binary does offline. Because the nominal
// probe is seed-independent, the result is content-cached: repeated
// trials of one cell perform the reconnaissance pass — probe load,
// symbol reads, gadget mining — once, and every other call is one
// counted hit. The cached recon is computed under a probe normalized to
// the key's fields only — everything else recon reports is independent
// of the runtime mitigations (it reads symbols and nominal layout, never
// executes) — and the one seed-dependent field, the canary, is fixed up
// on the way out so callers see exactly what an uncached probe under m
// would.
func ReconNominal(s Scenario, m Mitigations) (Recon, error) {
	if len(s.ExtraModules) > 0 {
		probe := m
		probe.ASLR = false
		return reconProbe(s, probe)
	}
	key := victimKey{src: s.Source, canary: m.Canary, checked: m.Checked, profile: m.Profile}
	r, err := reconCache.Do(key, func() (Recon, error) {
		probe := Mitigations{Canary: m.Canary, Checked: m.Checked, Profile: m.Profile}
		return reconProbe(s, probe)
	})
	if err != nil {
		return Recon{}, err
	}
	r.Canary = kernel.CanaryValue(m.CanarySeed)
	return r, nil
}
