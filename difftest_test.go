// Process-level engine differentials: the basic-block engine and the
// trace (superblock) engine must both be bit-identical to the
// single-step reference engine on one process — architectural state,
// output and coverage bitmaps — including self-modifying code that
// rewrites the block currently executing, and snapshot/restore cycles
// (the fuzz campaign cells reset their victim thousands of times per
// trial). The catalog-level comparison is the behaviour oracle
// (oracle_test.go).
package softsec

import (
	"bytes"
	"encoding/binary"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cfi"
	"softsec/internal/cpu"
	"softsec/internal/kernel"
	"softsec/internal/minc"
)

// engineTiers enumerates the three execution tiers under differential
// comparison; "step" is always the reference.
var engineTiers = []string{"step", "block", "trace"}

// underTier runs f with the package-wide engine switches pinned to one
// tier: "step" (single-step reference), "block" (basic blocks, no
// traces), or "trace" (blocks + superblocks, the production default).
func underTier(t testing.TB, tier string, f func()) {
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

// diffProcess links img with libc, loads it under cfg, calls post (when
// non-nil) on the loaded process so defenses that need the loaded image
// (the CFI policies) can be installed, and runs it to completion under
// every tier, comparing final state, registers, flags, step counts,
// fault rendering, output bytes and the coverage bitmap with the
// stepping engine's.
func diffProcess(t *testing.T, img *asm.Image, cfg kernel.Config, post func(p *kernel.Process) error) {
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
	for _, w := range []struct {
		name, src string
		opt       minc.Options
		cfg       kernel.Config
	}{
		{"echo/dep", echo, minc.Options{}, kernel.Config{DEP: true, Input: in()}},
		{"echo/none", echo, minc.Options{}, kernel.Config{Input: in()}},
		{"echo/smashed", echo, minc.Options{},
			kernel.Config{DEP: true, Input: &kernel.ScriptInput{bytes.Repeat([]byte{0x41}, 64)}}},
		{"compute/canary+shadow", compute, minc.Options{Canary: true},
			kernel.Config{DEP: true, CanarySeed: 9, ShadowStack: true}},
		// The budget lands mid-execution: StepLimit must fire at the same
		// instruction count under every tier.
		{"compute/steplimit", compute, minc.Options{}, kernel.Config{DEP: true, MaxSteps: 777}},
	} {
		t.Run(w.name, func(t *testing.T) {
			img, err := minc.Compile("v", w.src, w.opt)
			if err != nil {
				t.Fatal(err)
			}
			diffProcess(t, img, w.cfg, nil)
		})
	}
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
				diffProcess(t, img,
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
			diffProcess(t, img,
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
	diffProcess(t, img, kernel.Config{}, nil)

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
// every tier: run, restore, re-run with different input, and compare
// outputs and arch state after every cycle. The second victim is
// restored while it still has hot traces over its code, with an input
// that steers its branchy loop differently each cycle: stale
// superblocks from the previous cycle must never leak into the next
// one, on any tier.
func TestDifferentialSnapshotCycles(t *testing.T) {
	const echo = `
	void main() {
		char buf[16];
		read(0, buf, 64);
		write(1, buf, 8);
	}`
	const branchy = `
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
	for _, v := range []struct {
		name, src string
		dep       bool
		inputs    [][]byte
	}{
		{"echo", echo, false, [][]byte{
			[]byte("aaaaaaaaaaaa"),
			bytes.Repeat([]byte{0x41}, 64),
			[]byte("bbbbbbbbbbbb"),
			bytes.Repeat([]byte{0xCC}, 40),
		}},
		{"restore mid-trace", branchy, true, [][]byte{
			bytes.Repeat([]byte{0x41}, 32),                  // every branch taken
			bytes.Repeat([]byte{0x30}, 32),                  // every branch fallen through
			[]byte("A0A0A0A0A0A0A0A0A0A0A0A0A0A0A0A0")[:32], // alternating
			bytes.Repeat([]byte{0x41}, 32),                  // back to the first shape
		}},
	} {
		t.Run(v.name, func(t *testing.T) {
			img, err := minc.Compile("v", v.src, minc.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ld, err := kernel.Link(kernel.Libc(), img)
			if err != nil {
				t.Fatal(err)
			}
			type cycle struct {
				st    cpu.State
				steps uint64
				out   []byte
			}
			runCycles := func(tier string) []cycle {
				var out []cycle
				underTier(t, tier, func() {
					p, err := kernel.Load(ld, kernel.Config{DEP: v.dep, Input: &kernel.ScriptInput{}})
					if err != nil {
						t.Fatal(err)
					}
					snap := p.Snapshot()
					for _, in := range v.inputs {
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
				for i := range v.inputs {
					if got[i].st != ref[i].st || got[i].steps != ref[i].steps ||
						!bytes.Equal(got[i].out, ref[i].out) {
						t.Fatalf("cycle %d diverged: %s {%v %d %q} vs step {%v %d %q}",
							i, tier, got[i].st, got[i].steps, got[i].out,
							ref[i].st, ref[i].steps, ref[i].out)
					}
				}
			}
		})
	}
}
