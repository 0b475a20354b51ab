package attack

import (
	"bytes"
	"strings"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/isa"
	"softsec/internal/kernel"
	"softsec/internal/layout"
	"softsec/internal/mem"
	"softsec/internal/minc"
)

// fig2Secret is the paper's Figure 2 secret module.
const fig2Secret = `
static int tries_left = 3;
static int PIN = 1234;
static int secret = 666;

int get_secret(int provided_pin) {
	if (tries_left > 0) {
		if (PIN == provided_pin) {
			tries_left = 3;
			return secret;
		} else { tries_left--; return 0; }
	}
	else return 0;
}
`

// fig4Secret is the paper's Figure 4 variant taking a get_pin callback.
const fig4Secret = `
static int tries_left = 3;
static int PIN = 1234;
static int secret = 666;

int get_secret(int get_pin()) {
	if (tries_left > 0) {
		if (PIN == get_pin()) {
			tries_left = 3;
			return secret;
		} else { tries_left--; return 0; }
	}
	else return 0;
}
`

func loadProgram(t *testing.T, cfg kernel.Config, imgs ...*asm.Image) *kernel.Process {
	t.Helper()
	all := append([]*asm.Image{kernel.Libc()}, imgs...)
	ld, err := kernel.Link(all...)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.Load(ld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestGadgetFinderFindsIntendedEpilogues(t *testing.T) {
	libc := kernel.Libc()
	gs := FindGadgets(libc.Text, 0, 6)
	if len(gs) == 0 {
		t.Fatal("no gadgets found in libc")
	}
	// addv's epilogue pops ebp, edi, esi, ebx then returns.
	g, ok := FindPopChain(gs, 4)
	if !ok {
		t.Fatal("no pop4+ret gadget (addv epilogue) found")
	}
	regs, _ := g.PopRegs()
	want := []isa.Reg{isa.EBP, isa.EDI, isa.ESI, isa.EBX}
	for i, r := range want {
		if regs[i] != r {
			t.Fatalf("pop chain %v, want %v", regs, want)
		}
	}
}

func TestGadgetFinderFindsUnintendedGadget(t *testing.T) {
	// __build_id contains `mov esi, 0xc35b58`; re-entering that MOVI two
	// bytes in yields pop eax; pop ebx; ret — an unintended gadget.
	libc := kernel.Libc()
	gs := FindGadgets(libc.Text, 0, 4)
	found := false
	for _, g := range gs {
		if regs, ok := g.PopRegs(); ok && len(regs) == 2 &&
			regs[0] == isa.EAX && regs[1] == isa.EBX {
			found = true
		}
	}
	if !found {
		t.Fatal("unintended pop eax; pop ebx; ret not mined from immediate bytes")
	}
	// And it must not exist as an *intended* instruction boundary: check
	// the bytes come from inside a MOVI.
	if !bytes.Contains(libc.Text, []byte{0x58, 0x5b, 0xC3}) {
		t.Fatal("immediate bytes missing from libc text")
	}
}

func TestGadgetDecodeRejectsJunk(t *testing.T) {
	// A CALL before RET is not a usable straight-line gadget.
	code := isa.MustEncode(nil, isa.Instr{Op: isa.CALL, Imm: 4})
	code = isa.MustEncode(code, isa.Instr{Op: isa.RET})
	gs := FindGadgets(code, 0, 4)
	for _, g := range gs {
		for _, in := range g.Instrs[:len(g.Instrs)-1] {
			if isa.IsControlFlow(in.Op) {
				t.Fatalf("gadget with interior control flow: %v", g)
			}
		}
	}
}

func TestSmashSpecLayout(t *testing.T) {
	// Payload geometry for a 16-byte buffer comes from the classic
	// profile's frame arithmetic, the same API the attack builders use.
	f := layout.Classic().Frame(false, 16)
	s := NewSmash(16, 0x08048123)
	if s.RetOff != f.RetOffFrom(0) {
		t.Fatalf("NewSmash RetOff %d, want %d", s.RetOff, f.RetOffFrom(0))
	}
	b := s.Build()
	if len(b) != f.RetOffFrom(0)+4 {
		t.Fatalf("payload len %d", len(b))
	}
	if b[0] != 'A' || b[15] != 'A' {
		t.Fatal("filler wrong")
	}
	if le.Uint32(b[f.RetOffFrom(0)-4:]) != 0x42424242 { // saved EBP, just below
		t.Fatal("saved EBP slot wrong")
	}
	if le.Uint32(b[f.RetOffFrom(0):]) != 0x08048123 {
		t.Fatal("return address slot wrong")
	}
	fc := layout.Classic().Frame(true, 16)
	canaryOff, crossed := fc.CanaryOffFrom(0)
	if !crossed {
		t.Fatal("classic canary should sit between buf and the return address")
	}
	s2 := (&SmashSpec{RetOff: fc.RetOffFrom(0), Ret: 1, CanaryOff: -1}).WithCanary(canaryOff, 0xAABBCCDD)
	b2 := s2.Build()
	if le.Uint32(b2[canaryOff:]) != 0xAABBCCDD {
		t.Fatal("canary slot wrong")
	}
	s3 := &SmashSpec{RetOff: f.RetOffFrom(0), Ret: 2, CanaryOff: -1, Suffix: []byte{9, 9}}
	if n := len(s3.Build()); n != f.RetOffFrom(0)+4+2 {
		t.Fatalf("suffix payload len %d", n)
	}
}

func TestMarkerShellcodeRunsStandalone(t *testing.T) {
	// Execute the shellcode raw on a machine with an exit-capturing
	// kernel to prove it is position-correct.
	const loadAt = 0x00100000
	sc := MarkerShellcode(loadAt)
	m := mem.New()
	if err := m.Map(loadAt, mem.PageSize, mem.R|mem.W|mem.X); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadRaw(loadAt, sc); err != nil {
		t.Fatal(err)
	}
	// Minimal process shell around the raw CPU: reuse the kernel by
	// linking a trivial program, then redirect execution to the
	// shellcode. Simpler: interpret syscalls manually.
	c := cpu.New(m)
	c.IP = loadAt
	var out []byte
	c.Handler = trapFunc(func(c *cpu.CPU, vector uint8) error {
		switch c.Reg[isa.EAX] {
		case 4:
			b, err := m.ReadBytes(c.Reg[isa.ECX], int(c.Reg[isa.EDX]))
			if err != nil {
				return err
			}
			out = append(out, b...)
		case 1:
			c.Exit(int32(c.Reg[isa.EBX]))
		}
		return nil
	})
	if st := c.Run(100); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
	if string(out) != PwnMarker {
		t.Fatalf("shellcode wrote %q", out)
	}
	if c.ExitCode() != PwnExitCode {
		t.Fatalf("exit %d", c.ExitCode())
	}
}

type trapFunc func(c *cpu.CPU, vector uint8) error

func (f trapFunc) Trap(c *cpu.CPU, vector uint8) error { return f(c, vector) }

// TestInProcessScraperStealsSecret reproduces Figure 2's machine-code
// attack: a malicious module linked into the process scans static data for
// the PIN and exfiltrates the adjacent secret — no vulnerability needed.
func TestInProcessScraperStealsSecret(t *testing.T) {
	secretMod, err := minc.Compile("secretmod", fig2Secret, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lo := kernel.NominalData
	scraper, err := ScraperModule(lo, lo+0x1000, []byte{0xd2, 0x04, 0x00, 0x00}) // 1234 LE
	if err != nil {
		t.Fatal(err)
	}
	p := loadProgram(t, kernel.Config{DEP: true}, secretMod, scraper)
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != ScraperExitCode {
		t.Fatalf("state %v exit %d fault %v", st, p.CPU.ExitCode(), p.CPU.Fault())
	}
	// The 12-byte window around the PIN match must contain the secret
	// (666 = 0x29a little-endian).
	if !bytes.Contains(p.Output.Bytes(), []byte{0x9a, 0x02, 0x00, 0x00}) {
		t.Fatalf("secret not exfiltrated; scraper output % x", p.Output.Bytes())
	}
}

func TestKernelScrapeFindsSecretsEverywhere(t *testing.T) {
	secretMod, err := minc.Compile("secretmod", fig2Secret, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	trivialMain := asm.MustAssemble("m", `
	.text
	.global main
main:
	mov eax, 0
	ret
`)
	p := loadProgram(t, kernel.Config{DEP: true}, secretMod, trivialMain)
	hits := KernelScrape(p, []byte{0xd2, 0x04, 0x00, 0x00})
	if len(hits) == 0 {
		t.Fatal("kernel scraper found nothing")
	}
	// The secret must be 4 bytes after the PIN.
	if got := p.Mem.PeekWord(hits[0] + 4); got != 666 {
		t.Fatalf("word after PIN is %d, want 666", got)
	}
}

func TestFindTriesResetAddr(t *testing.T) {
	img, err := minc.Compile("secretmod", fig4Secret, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	addr, ok := FindTriesResetAddr(img.Text, 0x1000)
	if !ok {
		t.Fatalf("reset sequence not found; disasm:\n%s",
			isa.Listing(isa.Disassemble(img.Text, 0x1000)))
	}
	if addr < 0x1000 || addr >= 0x1000+uint32(len(img.Text)) {
		t.Fatalf("addr 0x%x out of range", addr)
	}
	// Decoding at the reported address must yield `mov eax, <imm>`.
	in, err := isa.Decode(img.Text[addr-0x1000:], addr)
	if err != nil || in.Op != isa.MOVI || in.Rd != isa.EAX {
		t.Fatalf("reset addr decodes to %v (%v)", in, err)
	}
}

// TestFig4FunctionPointerExploit runs the paper's Figure 4 attack end to
// end against an *unhardened* module: the malicious client passes a
// pointer into the module's code as get_pin, resets tries_left, and
// receives the secret.
func TestFig4FunctionPointerExploit(t *testing.T) {
	secretMod, err := minc.Compile("secretmod", fig4Secret, minc.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two-phase link: first with a placeholder target to learn the
	// layout, then with the real reset address (same sizes, so the
	// layout is unchanged).
	probe := loadProgram(t, kernel.Config{DEP: true}, secretMod, Fig4ClientModule(0))
	b, ok := probe.Module("secretmod")
	if !ok {
		t.Fatal("module bounds missing")
	}
	text, _ := probe.Mem.PeekRaw(b.TextStart, int(b.TextEnd-b.TextStart))
	resetAddr, ok := FindTriesResetAddr(text, b.TextStart)
	if !ok {
		t.Fatal("reset gadget not found in loaded module")
	}
	p := loadProgram(t, kernel.Config{DEP: true}, secretMod, Fig4ClientModule(resetAddr))
	// Pre-burn the tries counter so the reset is observable.
	triesAddr, ok := p.SymbolAddr("secretmod.tries_left")
	if !ok {
		t.Fatal("tries_left symbol missing")
	}
	p.Mem.PokeWord(triesAddr, 1)
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.CPU.ExitCode() != 666 {
		t.Fatalf("attacker got %d, want the secret 666", p.CPU.ExitCode())
	}
	// tries_left must have been reset to 3 by the gadget even though
	// no correct PIN was ever supplied.
	if got := p.Mem.PeekWord(triesAddr); got != 3 {
		t.Fatalf("tries_left = %d, want 3 (reset by exploit)", got)
	}
}

// TestFig4ExploitBlockedByFnPtrGuard compiles the same module with the
// secure-compilation defensive check: the call through the poisoned
// pointer must fail fast instead of executing module code.
func TestFig4ExploitBlockedByFnPtrGuard(t *testing.T) {
	guard := asm.MustAssemble("guards", `
	.data
	.global __module_text_start
__module_text_start:
	.word 0
	.global __module_text_end
__module_text_end:
	.word 0
`)
	_ = guard
	secretMod, err := minc.Compile("secretmod", fig4Secret, minc.Options{FnPtrGuard: true})
	if err != nil {
		t.Fatal(err)
	}
	// The guard bounds are provided as data words; for this unit test we
	// simply define the symbols as *labels in the module's own text* via
	// an aux image whose values the loader can't know — instead
	// internal/securecomp provides real bounds. Here, emulate it: the
	// guard symbols must exist; we give them the module's text range by
	// linking an asm stub whose labels sit at the right places.
	// Simplest honest approximation: define the symbols as text labels
	// surrounding the module by linking order: [start][module][end].
	startStub := asm.MustAssemble("gstart", `
	.text
	.global __module_text_start
__module_text_start:
`)
	endStub := asm.MustAssemble("gend", `
	.text
	.global __module_text_end
__module_text_end:
`)
	probe := loadProgram(t, kernel.Config{DEP: true},
		startStub, secretMod, endStub, Fig4ClientModule(0))
	b, _ := probe.Module("secretmod")
	text, _ := probe.Mem.PeekRaw(b.TextStart, int(b.TextEnd-b.TextStart))
	resetAddr, ok := FindTriesResetAddr(text, b.TextStart)
	if !ok {
		t.Fatal("reset gadget not found")
	}
	p := loadProgram(t, kernel.Config{DEP: true},
		startStub, secretMod, endStub, Fig4ClientModule(resetAddr))
	// Pre-burn the counter: a blocked exploit must leave it burned.
	triesAddr, _ := p.SymbolAddr("secretmod.tries_left")
	p.Mem.PokeWord(triesAddr, 1)
	st := p.Run()
	if st != cpu.Faulted || p.CPU.Fault().Kind != cpu.FaultFailFast {
		t.Fatalf("state %v fault %v, want fail-fast from the pointer guard",
			st, p.CPU.Fault())
	}
	if got := p.Mem.PeekWord(triesAddr); got != 1 {
		t.Fatalf("tries_left = %d, want 1 (unchanged by blocked exploit)", got)
	}
}

func TestROPChainBuilder(t *testing.T) {
	var c ROPChain
	c.CallCdecl(0x100, 0x200, 1, 2, 3, 4).FinalCall(0x300, 9)
	if len(c.words) != 9 {
		t.Fatalf("len %d", len(c.words))
	}
	if c.First() != 0x100 {
		t.Fatalf("first 0x%x", c.First())
	}
	rest := c.Rest()
	if le.Uint32(rest[0:]) != 0x200 || le.Uint32(rest[4:]) != 1 {
		t.Fatalf("rest % x", rest[:8])
	}
	if le.Uint32(rest[20:]) != 0x300 {
		t.Fatalf("final fn slot: % x", rest)
	}
}

func TestScraperModuleValidation(t *testing.T) {
	if _, err := ScraperModule(0, 1, nil); err == nil {
		t.Fatal("empty pattern accepted")
	}
	if _, err := ScraperModule(0, 1, make([]byte, 5)); err == nil {
		t.Fatal("oversized pattern accepted")
	}
}

func TestGadgetString(t *testing.T) {
	g := Gadget{Addr: 0x10, Instrs: []isa.Instr{
		{Op: isa.POP, Rd: isa.EAX, Size: 1},
		{Op: isa.RET, Size: 1},
	}}
	if s := g.String(); !strings.Contains(s, "pop eax") || !strings.Contains(s, "ret") {
		t.Fatalf("gadget string %q", s)
	}
}
