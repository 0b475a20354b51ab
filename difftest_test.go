// Engine differential tests: the basic-block engine and the trace
// (superblock) engine must both be bit-identical to the single-step
// reference engine across the entire scenario catalog — byte-identical
// aggregate JSON, identical raw trial results, identical architectural
// state, output, and coverage bitmaps — including self-modifying code
// that rewrites the block currently executing, and snapshot/restore
// cycles (the fuzz campaign cells reset their victim thousands of times
// per trial).
package softsec

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cfi"
	"softsec/internal/core"
	"softsec/internal/cpu"
	"softsec/internal/harness"
	"softsec/internal/kernel"
	"softsec/internal/minc"
)

// engineTiers enumerates the three execution tiers under differential
// comparison; "step" is always the reference.
var engineTiers = []string{"step", "block", "trace"}

// underTier runs f with the package-wide engine switches pinned to one
// tier: "step" (single-step reference), "block" (basic blocks, no
// traces), or "trace" (blocks + superblocks, the production default).
func underTier(t *testing.T, tier string, f func()) {
	t.Helper()
	savedB, savedT := cpu.UseBlockEngine, cpu.UseTraceEngine
	defer func() { cpu.UseBlockEngine, cpu.UseTraceEngine = savedB, savedT }()
	switch tier {
	case "step":
		cpu.UseBlockEngine, cpu.UseTraceEngine = false, false
	case "block":
		cpu.UseBlockEngine, cpu.UseTraceEngine = true, false
	case "trace":
		cpu.UseBlockEngine, cpu.UseTraceEngine = true, true
	default:
		t.Fatalf("unknown engine tier %q", tier)
	}
	f()
}

// catalogGroups returns the distinct group names of reg, sorted.
func catalogGroups(reg *harness.Registry) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range reg.All() {
		if !seen[s.Group] {
			seen[s.Group] = true
			out = append(out, s.Group)
		}
	}
	sort.Strings(out)
	return out
}

// TestDifferentialCatalog sweeps every registered scenario group under
// both engines and requires byte-identical reports. Trial counts are
// small but non-trivial: T1/T3/mc trials re-randomize layouts and
// canaries per trial, and each fuzz trial is a complete campaign of
// thousands of snapshot/restore cycles.
func TestDifferentialCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog differential is not short")
	}
	reg := harness.NewRegistry()
	if err := core.RegisterScenarios(reg); err != nil {
		t.Fatal(err)
	}
	for _, group := range catalogGroups(reg) {
		group := group
		t.Run(group, func(t *testing.T) {
			scs := reg.Group(group)
			if len(scs) == 0 {
				t.Fatalf("empty group %q", group)
			}
			trials := 2
			if group == "fuzz" || group == "fuzzp" {
				trials = 1 // a trial is a whole campaign
			}
			if group == "t1p" {
				trials = 1 // profile-spanning grid: 99 cells x 3 tiers
			}
			opt := harness.Options{Trials: trials, Jobs: 1, BaseSeed: 7}

			reps := map[string]*harness.Report{}
			for _, tier := range engineTiers {
				underTier(t, tier, func() { reps[tier] = harness.Run(scs, opt) })
			}
			refJSON, err := reps["step"].JSON()
			if err != nil {
				t.Fatal(err)
			}
			for _, tier := range engineTiers[1:] {
				rep := reps[tier]
				js, err := rep.JSON()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(js, refJSON) {
					t.Fatalf("aggregate JSON diverged between %s and step:\n%s:\n%s\nstep:\n%s",
						tier, tier, js, refJSON)
				}
				ref := reps["step"]
				for si := range rep.Results {
					for ti := range rep.Results[si] {
						b, r := rep.Results[si][ti], ref.Results[si][ti]
						if b.Outcome != r.Outcome || b.Code != r.Code ||
							b.Success != r.Success || b.Detail != r.Detail ||
							(b.Err == nil) != (r.Err == nil) {
							t.Fatalf("%s trial %d diverged: %s %+v vs step %+v",
								scs[si].Name, ti, tier, b, r)
						}
					}
				}
			}
		})
	}
}

// diffProcRun loads src (MinC) under cfg and runs it to completion under
// both engines, comparing final state, registers, flags, step counts,
// fault rendering, output bytes, and the coverage bitmap.
func diffProcRun(t *testing.T, name, src string, opt minc.Options, cfg kernel.Config) {
	t.Helper()
	img, err := minc.Compile(name, src, opt)
	if err != nil {
		t.Fatal(err)
	}
	diffLinkedRun(t, img, cfg)
}

func diffLinkedRun(t *testing.T, img *asm.Image, cfg kernel.Config) {
	t.Helper()
	diffConfiguredRun(t, img, cfg, nil)
}

// diffConfiguredRun is diffLinkedRun with a post-load hook, so defenses
// that need the loaded image (the CFI policies) can be installed before
// the engines are compared.
func diffConfiguredRun(t *testing.T, img *asm.Image, cfg kernel.Config,
	post func(p *kernel.Process) error) {
	t.Helper()
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	run := func(tier string) (*kernel.Process, cpu.State, *cpu.Coverage) {
		var p *kernel.Process
		var st cpu.State
		cov := &cpu.Coverage{}
		underTier(t, tier, func() {
			var err error
			p, err = kernel.Load(ld, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if post != nil {
				if err := post(p); err != nil {
					t.Fatal(err)
				}
			}
			p.CPU.Coverage = cov
			st = p.Run()
		})
		return p, st, cov
	}
	rp, rst, rcov := run("step")
	fs := func(f *cpu.Fault) string {
		if f == nil {
			return ""
		}
		return f.Error()
	}
	for _, tier := range engineTiers[1:] {
		bp, bst, bcov := run(tier)
		if bst != rst {
			t.Fatalf("state diverged: %s %v vs step %v (faults %v / %v)",
				tier, bst, rst, bp.CPU.Fault(), rp.CPU.Fault())
		}
		if bp.CPU.Reg != rp.CPU.Reg || bp.CPU.IP != rp.CPU.IP || bp.CPU.F != rp.CPU.F {
			t.Fatalf("arch state diverged:\n%s: reg %v ip %#x f %+v\nstep:  reg %v ip %#x f %+v",
				tier, bp.CPU.Reg, bp.CPU.IP, bp.CPU.F, rp.CPU.Reg, rp.CPU.IP, rp.CPU.F)
		}
		if bp.CPU.Steps != rp.CPU.Steps {
			t.Fatalf("steps diverged: %s %d vs step %d", tier, bp.CPU.Steps, rp.CPU.Steps)
		}
		if fs(bp.CPU.Fault()) != fs(rp.CPU.Fault()) {
			t.Fatalf("fault diverged: %q vs %q", fs(bp.CPU.Fault()), fs(rp.CPU.Fault()))
		}
		if !bytes.Equal(bp.Output.Bytes(), rp.Output.Bytes()) {
			t.Fatalf("output diverged: %q vs %q", bp.Output.Bytes(), rp.Output.Bytes())
		}
		if bcov.Count() != rcov.Count() || bcov.NewBits(rcov) != 0 {
			t.Fatalf("coverage diverged (%s): %d vs %d edges", tier, bcov.Count(), rcov.Count())
		}
	}
}

// TestDifferentialKernelWorkloads compares full process runs — arch
// state, output, coverage — for representative workloads.
func TestDifferentialKernelWorkloads(t *testing.T) {
	const echo = `
	void main() {
		char buf[16];
		read(0, buf, 64);
		write(1, buf, 5);
	}`
	const compute = `
	int step(int i) {
		char tmp[8];
		tmp[i % 8] = i;
		return tmp[i % 8];
	}
	int main() {
		int i;
		int acc = 0;
		for (i = 0; i < 200; i++) {
			acc = acc + step(i);
		}
		return acc & 0xFF;
	}`
	in := func() *kernel.ScriptInput { return &kernel.ScriptInput{[]byte("hello world")} }
	t.Run("echo/dep", func(t *testing.T) {
		diffProcRun(t, "v", echo, minc.Options{}, kernel.Config{DEP: true, Input: in()})
	})
	t.Run("echo/none", func(t *testing.T) {
		diffProcRun(t, "v", echo, minc.Options{}, kernel.Config{Input: in()})
	})
	t.Run("echo/smashed", func(t *testing.T) {
		smash := bytes.Repeat([]byte{0x41}, 64)
		diffProcRun(t, "v", echo, minc.Options{},
			kernel.Config{DEP: true, Input: &kernel.ScriptInput{smash}})
	})
	t.Run("compute/canary+shadow", func(t *testing.T) {
		diffProcRun(t, "k", compute, minc.Options{Canary: true},
			kernel.Config{DEP: true, CanarySeed: 9, ShadowStack: true})
	})
	t.Run("compute/steplimit", func(t *testing.T) {
		// The budget lands mid-execution: StepLimit must fire at the same
		// instruction count under both engines.
		diffProcRun(t, "k", compute, minc.Options{},
			kernel.Config{DEP: true, MaxSteps: 777})
	})
}

// TestDifferentialCFIPolicy pins the CFI block-refusal path: under a CFI
// policy the block engine summarizes straight-line spans as data-free but
// refuses any span ending in an indirect branch or RET, stepping those —
// so hijack faults, benign indirect calls, coverage, and step counts must
// all land bit-identically to the pure stepping engine, at every
// precision. The victim is the dispatch-table program whose honest run
// exercises CALLR+RET and whose smashed run dies (fine) or reaches the
// reused entries (coarse).
func TestDifferentialCFIPolicy(t *testing.T) {
	const victim = `
	char name[32];
	int *actions[2];

	int hello() {
		write(1, "hello ", 6);
		return 0;
	}
	int bye() {
		write(1, "bye", 3);
		return 0;
	}
	void main() {
		actions[0] = hello;
		actions[1] = bye;
		read(0, name, 44);
		int *f = actions[0];
		f();
		f = actions[1];
		f();
	}`
	img, err := minc.Compile("v", victim, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Build the entry-reuse payload against a probe copy at the nominal
	// layout (the configs below do not randomize).
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	probe, err := kernel.Load(ld, kernel.Config{DEP: true})
	if err != nil {
		t.Fatal(err)
	}
	addv, ok := probe.SymbolAddr("addv")
	if !ok {
		t.Fatal("no addv")
	}
	spawn, ok := probe.SymbolAddr("spawn_shell")
	if !ok {
		t.Fatal("no spawn_shell")
	}
	smash := append(bytes.Repeat([]byte{'x'}, 32), make([]byte, 8)...)
	binary.LittleEndian.PutUint32(smash[32:], addv)
	binary.LittleEndian.PutUint32(smash[36:], spawn)

	inputs := map[string][]byte{
		"benign": []byte("alice"),
		"smash":  smash,
	}
	for _, prec := range []cfi.Precision{cfi.Coarse, cfi.Fine} {
		for label, in := range inputs {
			t.Run(prec.String()+"/"+label, func(t *testing.T) {
				diffConfiguredRun(t, img,
					kernel.Config{DEP: true, Input: &kernel.ScriptInput{in}},
					func(p *kernel.Process) error {
						g, err := cfi.Recover(p)
						if err != nil {
							return err
						}
						p.CPU.Policy = cfi.NewPolicy(g, prec)
						return nil
					})
			})
		}
	}
	// Fine CFI stacked with the shadow stack — forward and backward edges
	// both policed, traces enabled (the default tier in the sweep): the
	// strongest defense combination must stay bit-identical too.
	for label, in := range inputs {
		t.Run("fine+shadow/"+label, func(t *testing.T) {
			diffConfiguredRun(t, img,
				kernel.Config{DEP: true, ShadowStack: true, Input: &kernel.ScriptInput{in}},
				func(p *kernel.Process) error {
					g, err := cfi.Recover(p)
					if err != nil {
						return err
					}
					p.CPU.Policy = cfi.NewPolicy(g, cfi.Fine)
					return nil
				})
		})
	}
}

// selfModifySrc patches the immediate byte of an instruction *later in
// the same straight-line block* (the storeb and its target sit between
// two control transfers), then loops so the patched instruction is also
// re-entered from a warm block cache. The final mov hands the patched
// value to the exit code. Five iterations, not two: the warm-up gate
// (decode/block caches allocate on the first refetched address) plus the
// hotness gate mean block formation starts around the fourth visit, and
// the in-block self-modification path this test pins must actually run
// from a built block.
const selfModifySrc = `
	.text
	.global main
main:
	mov edx, 0
loop:
	mov ecx, target
	mov eax, 0x77
	storeb [ecx+1], eax
target:
	mov ebx, 0x11
	cmp edx, 4
	jz done
	add edx, 1
	jmp loop
done:
	mov eax, ebx
	mov ebx, eax
	and ebx, 0xFF
	mov eax, 1
	int 0x80
`

// TestDifferentialSelfModifyingBlock runs the in-block self-modification
// program at process level (no DEP: text is writable, the historical
// layout) under both engines and also pins the architectural result.
func TestDifferentialSelfModifyingBlock(t *testing.T) {
	img, err := asm.Assemble("smc", selfModifySrc)
	if err != nil {
		t.Fatal(err)
	}
	diffLinkedRun(t, img, kernel.Config{})

	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.Load(ld, kernel.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if code := p.CPU.ExitCode(); code != 0x77 {
		t.Fatalf("exit code %#x, want 0x77 (stale decode survived in-block self-modify)", code)
	}
}

// TestDifferentialSnapshotCycles drives mutate-restore cycles through
// both engines: run, restore, re-run with different input, and compare
// outputs and arch state after every cycle.
func TestDifferentialSnapshotCycles(t *testing.T) {
	const victim = `
	void main() {
		char buf[16];
		read(0, buf, 64);
		write(1, buf, 8);
	}`
	img, err := minc.Compile("v", victim, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		[]byte("aaaaaaaaaaaa"),
		bytes.Repeat([]byte{0x41}, 64),
		[]byte("bbbbbbbbbbbb"),
		bytes.Repeat([]byte{0xCC}, 40),
	}
	type cycle struct {
		st    cpu.State
		steps uint64
		out   []byte
	}
	runCycles := func(tier string) []cycle {
		var out []cycle
		underTier(t, tier, func() {
			p, err := kernel.Load(ld, kernel.Config{Input: &kernel.ScriptInput{}})
			if err != nil {
				t.Fatal(err)
			}
			snap := p.Snapshot()
			for _, in := range inputs {
				if err := p.Restore(snap); err != nil {
					t.Fatal(err)
				}
				p.SetInput(&kernel.ScriptInput{in})
				st := p.Run()
				out = append(out, cycle{st, p.CPU.Steps, append([]byte(nil), p.Output.Bytes()...)})
			}
		})
		return out
	}
	ref := runCycles("step")
	for _, tier := range engineTiers[1:] {
		got := runCycles(tier)
		for i := range inputs {
			if got[i].st != ref[i].st || got[i].steps != ref[i].steps ||
				!bytes.Equal(got[i].out, ref[i].out) {
				t.Fatalf("cycle %d diverged: %s {%v %d %q} vs step {%v %d %q}",
					i, tier, got[i].st, got[i].steps, got[i].out,
					ref[i].st, ref[i].steps, ref[i].out)
			}
		}
	}
}

// TestDifferentialRestoreMidTrace restores a snapshot taken while the
// victim still has hot traces over its code, with an input that steers
// the (branchy) victim differently each cycle: stale superblocks from the
// previous cycle must never leak into the next one, on any tier.
func TestDifferentialRestoreMidTrace(t *testing.T) {
	const victim = `
	void main() {
		char buf[32];
		int i;
		int acc = 0;
		read(0, buf, 32);
		for (i = 0; i < 3000; i++) {
			if (buf[i % 16] > 0x40) {
				acc = acc + 3;
			} else {
				acc = acc - 1;
			}
		}
		write(1, buf, 4);
	}`
	img, err := minc.Compile("v", victim, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	inputs := [][]byte{
		bytes.Repeat([]byte{0x41}, 32),                  // every branch taken
		bytes.Repeat([]byte{0x30}, 32),                  // every branch fallen through
		[]byte("A0A0A0A0A0A0A0A0A0A0A0A0A0A0A0A0")[:32], // alternating
		bytes.Repeat([]byte{0x41}, 32),                  // back to the first shape
	}
	type cycle struct {
		st    cpu.State
		steps uint64
		out   []byte
	}
	runCycles := func(tier string) []cycle {
		var out []cycle
		underTier(t, tier, func() {
			p, err := kernel.Load(ld, kernel.Config{DEP: true, Input: &kernel.ScriptInput{}})
			if err != nil {
				t.Fatal(err)
			}
			snap := p.Snapshot()
			for _, in := range inputs {
				if err := p.Restore(snap); err != nil {
					t.Fatal(err)
				}
				p.SetInput(&kernel.ScriptInput{in})
				st := p.Run()
				out = append(out, cycle{st, p.CPU.Steps, append([]byte(nil), p.Output.Bytes()...)})
			}
		})
		return out
	}
	ref := runCycles("step")
	for _, tier := range engineTiers[1:] {
		got := runCycles(tier)
		for i := range inputs {
			if got[i].st != ref[i].st || got[i].steps != ref[i].steps ||
				!bytes.Equal(got[i].out, ref[i].out) {
				t.Fatalf("cycle %d diverged: %s {%v %d} vs step {%v %d}",
					i, tier, got[i].st, got[i].steps, ref[i].st, ref[i].steps)
			}
		}
	}
}
