package cfi

import (
	"bytes"
	"encoding/binary"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/kernel"
	"softsec/internal/minc"
)

// fnptrVictim keeps a function pointer above an overflowable static
// buffer — the hijack shape the CFI subsystem exists to police.
const fnptrVictim = `
char name[16];
int *handler;

int greet() {
	write(1, "hi ", 3);
	return 0;
}
void main() {
	handler = greet;
	read(0, name, 24); // overflows into handler
	int *f = handler;
	f(); // indirect call: the checked forward edge
}`

func loadVictim(t *testing.T, src string, cfg kernel.Config) *kernel.Process {
	t.Helper()
	img, err := minc.Compile("victim", src, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.Load(ld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func sym(t *testing.T, p *kernel.Process, name string) uint32 {
	t.Helper()
	a, ok := p.SymbolAddr(name)
	if !ok {
		t.Fatalf("symbol %q missing", name)
	}
	return a
}

func recoverCFG(t *testing.T, p *kernel.Process) *CFG {
	t.Helper()
	g, err := Recover(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// labeled returns every text address whose label has a bit of mask, in
// address order.
func labeled(g *CFG, mask uint8) []uint32 {
	var out []uint32
	for a := g.TextBase; a < g.TextEnd; a++ {
		if g.LabelAt(a)&mask != 0 {
			out = append(out, a)
		}
	}
	return out
}

func TestRecoverLabels(t *testing.T) {
	p := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
	g := recoverCFG(t, p)

	// Linker symbols become entries.
	for _, name := range []string{"main", "greet", "spawn_shell", "puts", "read", "_start"} {
		if g.LabelAt(sym(t, p, name))&LabelEntry == 0 {
			t.Errorf("%s is not labeled as an entry", name)
		}
	}
	// The victim's indirect call is discovered.
	if len(labeled(g, LabelIndirect)) == 0 {
		t.Fatal("no indirect-branch sites recovered")
	}
	// Every byte after a direct CALL in _start is a return site: _start
	// does `call main` and falls through to the exit sequence.
	found := false
	for _, rs := range labeled(g, LabelRetSite) {
		if g.LabelAt(rs)&LabelInstr != 0 {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no return site coincides with an instruction start")
	}

	// greet's address is materialized by `handler = greet` (a text
	// immediate): address-taken. spawn_shell's address appears nowhere.
	if g.LabelAt(sym(t, p, "greet"))&LabelAddrTaken == 0 {
		t.Errorf("greet should be address-taken (text immediate scrape)")
	}
	if g.LabelAt(sym(t, p, "spawn_shell"))&LabelAddrTaken != 0 {
		t.Errorf("spawn_shell must not be address-taken")
	}
}

// TestRecoverScrapesGlobals: a function pointer sitting in *initialized*
// data is found by the data scrape. MinC has no static initializers for
// pointers, so plant one by hand after load: the scrape reads loaded
// memory, exactly as it would for a compiler that emits pointer tables.
func TestRecoverScrapesGlobals(t *testing.T) {
	p := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
	spawn := sym(t, p, "spawn_shell")
	// Overwrite the handler global's initial bytes with spawn_shell's
	// address before recovery runs.
	handler := sym(t, p, "handler")
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], spawn)
	if _, err := p.Mem.WriteBytes(handler, w[:]); err != nil {
		t.Fatal(err)
	}
	g := recoverCFG(t, p)
	if g.LabelAt(spawn)&LabelAddrTaken == 0 {
		t.Fatalf("global scrape missed a planted function pointer")
	}
}

func TestCoarseVsFineTargets(t *testing.T) {
	p := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
	g := recoverCFG(t, p)
	site := labeled(g, LabelIndirect)[0]
	greet := sym(t, p, "greet")
	spawn := sym(t, p, "spawn_shell")

	coarse := NewPolicy(g, Coarse)
	fine := NewPolicy(g, Fine)

	// Coarse: any entry is a legal indirect-call target — including the
	// system()-like routine a function-reuse chain hijacks to.
	if err := coarse.CheckExec(site, greet); err != nil {
		t.Errorf("coarse refused the legitimate target: %v", err)
	}
	if err := coarse.CheckExec(site, spawn); err != nil {
		t.Errorf("coarse should allow the entry-reuse hijack (that is its weakness): %v", err)
	}
	// Neither precision accepts a mid-function address.
	if coarse.CheckExec(site, greet+1) == nil {
		t.Errorf("coarse allowed a non-entry target")
	}
	// Fine: only address-taken functions.
	if err := fine.CheckExec(site, greet); err != nil {
		t.Errorf("fine refused the address-taken target: %v", err)
	}
	if fine.CheckExec(site, spawn) == nil {
		t.Errorf("fine allowed a non-address-taken entry")
	}

	// Transfers from unlabeled addresses are uninstrumented.
	if err := fine.CheckExec(0xDEAD0000, spawn); err != nil {
		t.Errorf("transfer from outside text should pass: %v", err)
	}
}

// TestViolationEdgeKinds: violations name the transfer flavour — "call"
// for CALLR sites, "jmp" for JMPR sites, "ret" for RET sites — in both
// the interface checker and the compiled closure.
func TestViolationEdgeKinds(t *testing.T) {
	// Never runs — recovery is static; the program just has to *contain*
	// each indirect-transfer flavour.
	img, err := asm.Assemble("jumper", `
	.text
	.global main
main:
	mov eax, 0x00000040
	call eax
	jmp eax
`)
	if err != nil {
		t.Fatal(err)
	}
	ld, err := kernel.Link(kernel.Libc(), img)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.Load(ld, kernel.Config{DEP: true})
	if err != nil {
		t.Fatal(err)
	}
	g := recoverCFG(t, p)

	var jmpSite, callSite, retSite uint32
	for a := g.TextBase; a < g.TextEnd; a++ {
		l := g.LabelAt(a)
		switch {
		case l&LabelIndirectJmp != 0 && jmpSite == 0:
			jmpSite = a
		case l&LabelIndirect != 0 && callSite == 0:
			callSite = a
		case l&LabelRet != 0 && retSite == 0:
			retSite = a
		}
	}
	if jmpSite == 0 || callSite == 0 || retSite == 0 {
		t.Fatalf("missing sites (jmp=%#x call=%#x ret=%#x)", jmpSite, callSite, retSite)
	}
	pl := NewPolicy(g, Coarse)
	_, _, exec := pl.CompileChecks()
	const bad = 0x40 // low memory: never a label
	for from, want := range map[uint32]string{jmpSite: "jmp", callSite: "call", retSite: "ret"} {
		for name, check := range map[string]func(uint32, uint32) error{
			"interface": pl.CheckExec, "compiled": exec,
		} {
			v, ok := check(from, bad).(*Violation)
			if !ok || v.Edge != want {
				t.Fatalf("%s checker at %#x: got %v, want edge %q", name, from, v, want)
			}
		}
	}
}

// TestCompiledCheckerAgrees drives the CompileChecks exec closure and the
// interface CheckExec over the same edges and requires identical verdicts.
func TestCompiledCheckerAgrees(t *testing.T) {
	p := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
	g := recoverCFG(t, p)
	for _, prec := range []Precision{Coarse, Fine} {
		pl := NewPolicy(g, prec)
		read, write, exec := pl.CompileChecks()
		if read != nil || write != nil {
			t.Fatalf("CFI must not compile data checkers")
		}
		froms := append(labeled(g, LabelIndirect), g.TextBase, g.TextEnd-1, 0, 0xFFFFFFF0)
		// Include RET sites as sources too.
		froms = append(froms, labeled(g, LabelRet)...)
		tos := append(labeled(g, LabelEntry), labeled(g, LabelRetSite)...)
		tos = append(tos, g.TextBase+1, 0xBFFF0000, 0)
		for _, f := range froms {
			for _, to := range tos {
				a := pl.CheckExec(f, to)
				b := exec(f, to)
				if (a == nil) != (b == nil) {
					t.Fatalf("%v: verdicts diverge for %#x -> %#x: %v vs %v", prec, f, to, a, b)
				}
			}
		}
	}
}

// smashPayload builds the 16-filler + pointer overflow for fnptrVictim.
func smashPayload(target uint32) []byte {
	p := append(bytes.Repeat([]byte{'x'}, 16), 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(p[16:], target)
	return p
}

// TestEndToEndHijackOutcomes runs the function-pointer hijack against
// every precision: no policy → the hijack lands; coarse → it still lands
// (entry reuse); fine → FaultPolicy with a cfi Violation.
func TestEndToEndHijackOutcomes(t *testing.T) {
	run := func(prec Precision, install bool) (*kernel.Process, cpu.State) {
		// Build an input targeting spawn_shell; layout is nominal (no
		// ASLR) so a probe load gives the address.
		probe := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
		spawn := sym(t, probe, "spawn_shell")
		p := loadVictim(t, fnptrVictim, kernel.Config{
			DEP:   true,
			Input: &kernel.ScriptInput{smashPayload(spawn)},
		})
		if install {
			p.CPU.Policy = NewPolicy(recoverCFG(t, p), prec)
		}
		return p, p.Run()
	}

	if p, st := run(Coarse, false); st != cpu.Exited || p.CPU.ExitCode() != 61 {
		t.Fatalf("unprotected hijack should reach spawn_shell: %v fault %v", st, p.CPU.Fault())
	}
	if p, st := run(Coarse, true); st != cpu.Exited || p.CPU.ExitCode() != 61 {
		t.Fatalf("coarse CFI should be bypassed by entry reuse: %v fault %v", st, p.CPU.Fault())
	}
	p, st := run(Fine, true)
	if st != cpu.Faulted || p.CPU.Fault().Kind != cpu.FaultPolicy {
		t.Fatalf("fine CFI should fault the hijack: %v fault %v", st, p.CPU.Fault())
	}
	var v *Violation
	if f := p.CPU.Fault(); f != nil {
		if vv, ok := f.Err.(*Violation); ok {
			v = vv
		}
	}
	if v == nil || v.Edge != "call" || v.Precision != Fine {
		t.Fatalf("fault should carry a fine call Violation, got %v", p.CPU.Fault().Err)
	}
}

// TestBenignRunsClean: the victim with well-formed input runs Normal
// under fine CFI — no false positives on legitimate indirect calls and
// returns.
func TestBenignRunsClean(t *testing.T) {
	for _, prec := range []Precision{Coarse, Fine} {
		p := loadVictim(t, fnptrVictim, kernel.Config{
			DEP:   true,
			Input: &kernel.ScriptInput{[]byte("alice\x00")},
		})
		p.CPU.Policy = NewPolicy(recoverCFG(t, p), prec)
		if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 0 {
			t.Fatalf("%v: benign run not clean: %v fault %v", prec, st, p.CPU.Fault())
		}
		if !bytes.Contains(p.Output.Bytes(), []byte("hi ")) {
			t.Fatalf("%v: benign output missing: %q", prec, p.Output.Bytes())
		}
	}
}

// TestPolicyEpochInvalidation: blocks cached under no policy must be
// re-summarized when CFI is installed between runs — the hijack that
// succeeded on run one faults on run two of the very same process.
func TestPolicyEpochInvalidation(t *testing.T) {
	probe := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
	spawn := sym(t, probe, "spawn_shell")

	p := loadVictim(t, fnptrVictim, kernel.Config{DEP: true, Input: &kernel.ScriptInput{}})
	snap := p.Snapshot()

	// Run 1, no policy: warm the block cache, hijack lands.
	p.SetInput(&kernel.ScriptInput{smashPayload(spawn)})
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 61 {
		t.Fatalf("warm-up hijack failed: %v fault %v", st, p.CPU.Fault())
	}

	// Run 2, fine CFI installed on the same CPU: every cached block was
	// summarized under the old (nil) policy epoch and must be refused or
	// re-summarized, so the hijack now faults.
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	p.SetInput(&kernel.ScriptInput{smashPayload(spawn)})
	p.CPU.Policy = NewPolicy(recoverCFG(t, p), Fine)
	if st := p.Run(); st != cpu.Faulted || p.CPU.Fault().Kind != cpu.FaultPolicy {
		t.Fatalf("stale block summaries survived the policy toggle: %v fault %v", st, p.CPU.Fault())
	}

	// And toggling CFI *off* again restores the old behavior.
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	p.SetInput(&kernel.ScriptInput{smashPayload(spawn)})
	p.CPU.Policy = nil
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 61 {
		t.Fatalf("removing the policy did not restore the unprotected machine: %v fault %v", st, p.CPU.Fault())
	}
}

// TestBlockRefusalMatchesStepping pins the block engine's conservative
// refusal of indirect-terminated spans: outcomes under the block engine
// equal the stepping engine for both a benign and a hijacked run.
func TestBlockRefusalMatchesStepping(t *testing.T) {
	probe := loadVictim(t, fnptrVictim, kernel.Config{DEP: true})
	spawn := sym(t, probe, "spawn_shell")
	inputs := [][]byte{[]byte("bob\x00"), smashPayload(spawn)}
	for _, prec := range []Precision{Coarse, Fine} {
		for _, in := range inputs {
			type res struct {
				st    cpu.State
				steps uint64
				fault string
			}
			run := func(blocks bool) res {
				saved := cpu.UseBlockEngine
				cpu.UseBlockEngine = blocks
				defer func() { cpu.UseBlockEngine = saved }()
				p := loadVictim(t, fnptrVictim, kernel.Config{
					DEP: true, Input: &kernel.ScriptInput{in},
				})
				p.CPU.Policy = NewPolicy(recoverCFG(t, p), prec)
				st := p.Run()
				f := ""
				if p.CPU.Fault() != nil {
					f = p.CPU.Fault().Error()
				}
				return res{st, p.CPU.Steps, f}
			}
			b, s := run(true), run(false)
			if b != s {
				t.Fatalf("%v input %q: engines diverged: block %+v vs step %+v", prec, in, b, s)
			}
		}
	}
}
