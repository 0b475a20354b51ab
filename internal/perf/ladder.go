package perf

import (
	"fmt"
	"runtime"
	"strings"

	"softsec/internal/asm"
	"softsec/internal/cfi"
	"softsec/internal/cpu"
	"softsec/internal/fuzz"
	"softsec/internal/harness"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/mem"
	"softsec/internal/minc"
)

// The ladder calls single layers in isolation on the workload's own
// victims — compile, link, load, snapshot, restore, CFG recovery — and
// times the interpreter's tiers on synthetic loops. Its samples are
// sized for the tail rule: a p99 needs 1000 of them.
const (
	ladderToolchain = 50   // samples of compile, link and CFG recovery
	ladderLoads     = 1000 // samples of load and snapshot
	ladderRestores  = 2    // run-then-restore samples per load
	ladderAllocN    = 200  // loads in the allocation count
	chainInstrs     = 1 << 20
	chainSamples    = 5
)

// victimBuild is one cell's victim as the ladder builds it.
type victimBuild struct {
	name string
	src  string
	opts minc.Options
	cfg  kernel.Config
}

// victimBuilds derives one build per cell, configured as the cell's
// first trial deploys it.
func victimBuilds(cs []cell, seed int64) ([]victimBuild, error) {
	var out []victimBuild
	for _, c := range cs {
		if fc := c.campaign; fc != nil {
			prof, err := layout.ByName(fc.Profile)
			if err != nil {
				return nil, err
			}
			out = append(out, victimBuild{
				name: c.sc.Name, src: fc.Source,
				opts: minc.Options{Canary: fc.Canary, BoundsCheck: fc.Checked, Layout: prof},
				cfg: kernel.Config{DEP: fc.DEP, ShadowStack: fc.ShadowStack, CheckedLibc: fc.Checked,
					MaxSteps: fuzz.DefaultExecSteps, MaxHeap: fuzz.DefaultExecHeap, Profile: prof,
					Input: &kernel.ScriptInput{fuzz.DefaultSeeds()[0]}},
			})
			continue
		}
		m, _ := c.mitigations(harness.TrialSeed(seed, c.sc.Name, 0))
		s, err := c.attack.Scenario(m)
		if err != nil {
			return nil, fmt.Errorf("perf: ladder: %s: %w", c.sc.Name, err)
		}
		prof, err := m.LayoutProfile()
		if err != nil {
			return nil, err
		}
		// A stateful input cannot replay after a restore; such victims
		// run without input on the ladder.
		var in kernel.InputSource
		if _, ok := s.Attacker.(interface{ CloneInput() kernel.InputSource }); ok {
			in = s.Attacker
		}
		out = append(out, victimBuild{
			name: c.sc.Name, src: s.Source,
			opts: minc.Options{Canary: m.Canary, BoundsCheck: m.Checked, Layout: prof},
			cfg: kernel.Config{DEP: m.DEP, ASLR: m.ASLR, ASLRSeed: m.ASLRSeed, CanarySeed: m.CanarySeed,
				CheckedLibc: m.Checked, ShadowStack: m.ShadowStack, Input: in, MaxSteps: s.MaxSteps, Profile: prof},
		})
	}
	return out, nil
}

// runLadder records the ladder's spans and returns the load allocation
// in KiB per load.
func runLadder(rec *recorder, vs []victimBuild) (float64, error) {
	linked := make([]*kernel.Linked, len(vs))
	record := func(name string, t0 int64) { rec.since(name, phaseLadder, 0, t0) }
	for toolchain, recovers, loads := 0, 0, 0; toolchain < ladderToolchain || loads < ladderLoads; {
		for i, v := range vs {
			if toolchain < ladderToolchain || linked[i] == nil {
				toolchain++
				t0 := rec.now()
				img, err := minc.Compile("victim", v.src, v.opts)
				record("minc.compile", t0)
				if err != nil {
					return 0, fmt.Errorf("perf: ladder: %s: compile: %w", v.name, err)
				}
				t0 = rec.now()
				ld, err := kernel.Link(kernel.Libc(), img)
				record("kernel.link", t0)
				if err != nil {
					return 0, fmt.Errorf("perf: ladder: %s: link: %w", v.name, err)
				}
				linked[i] = ld
			}
			cfg := v.cfg
			cfg.ASLRSeed += int64(loads) // a fresh layout per ASLR load
			t0 := rec.now()
			p, err := kernel.Load(linked[i], cfg)
			record("kernel.load", t0)
			if err != nil {
				return 0, fmt.Errorf("perf: ladder: %s: load: %w", v.name, err)
			}
			loads++
			t0 = rec.now()
			snap := p.Snapshot()
			record("kernel.snapshot", t0)
			for range ladderRestores {
				p.Run()
				t0 = rec.now()
				err := p.Restore(snap)
				record("kernel.restore", t0)
				if err != nil {
					return 0, fmt.Errorf("perf: ladder: %s: restore: %w", v.name, err)
				}
			}
			if recovers < ladderToolchain {
				recovers++
				t0 = rec.now()
				_, err := cfi.Recover(p)
				record("cfi.recover", t0)
				if err != nil {
					return 0, fmt.Errorf("perf: ladder: %s: cfi recover: %w", v.name, err)
				}
			}
		}
	}

	// Load allocation, counted apart from the timed calls: a batch of
	// loads between two heap-statistics reads.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := range ladderAllocN {
		v := vs[i%len(vs)]
		if _, err := kernel.Load(linked[i%len(vs)], v.cfg); err != nil {
			return 0, fmt.Errorf("perf: ladder: %s: load: %w", v.name, err)
		}
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024 / ladderAllocN, nil
}

// chainTier is one interpreter tier on one synthetic loop.
type chainTier struct {
	name         string
	block, trace bool
	nblocks      int
}

var chainTiers = []chainTier{
	{"step_loop", false, false, 1},
	{"block_chain8", true, false, 8},
	{"trace_chain8", true, true, 8},
}

// tierNsPerInstr times each tier on its loop: the median of
// chainSamples runs of chainInstrs instructions, after a warm-up run
// past every hotness gate. The tier switches are process globals; they
// are restored before returning.
func tierNsPerInstr(rec *recorder) (map[string]float64, error) {
	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()
	out := make(map[string]float64)
	for _, t := range chainTiers {
		cpu.UseBlockEngine, cpu.UseTraceEngine = t.block, t.trace
		c, err := chainCPU(t.nblocks)
		if err != nil {
			return nil, err
		}
		arch := c.SaveArch()
		c.Run(2048)
		var ns []float64
		for range chainSamples {
			c.RestoreArch(arch)
			t0 := rec.now()
			st := c.Run(chainInstrs)
			t1 := rec.now()
			rec.add("cpu."+t.name, phaseLadder, 0, t0, t1)
			if st != cpu.StepLimit {
				return nil, fmt.Errorf("perf: ladder: %s: state %v fault %v", t.name, st, c.Fault())
			}
			ns = append(ns, float64(t1-t0)/chainInstrs)
		}
		out[t.name] = median(ns)
	}
	return out, nil
}

// chainCPU builds a bare machine looping through nblocks two-instruction
// basic blocks (add esi,1; jmp next), the last jumping back to the
// first: the dispatch-bound loop the block and trace tiers target.
func chainCPU(nblocks int) (*cpu.CPU, error) {
	var src strings.Builder
	src.WriteString("\t.text\n")
	for i := range nblocks {
		fmt.Fprintf(&src, "b%d:\n\tadd esi, 1\n\tjmp b%d\n", i, (i+1)%nblocks)
	}
	img, err := asm.Assemble("chain", src.String())
	if err != nil {
		return nil, err
	}
	m := mem.New()
	if err := m.Map(0x1000, mem.PageSize, mem.RX); err != nil {
		return nil, err
	}
	if err := m.LoadRaw(0x1000, img.Text); err != nil {
		return nil, err
	}
	c := cpu.New(m)
	c.IP = 0x1000
	return c, nil
}
