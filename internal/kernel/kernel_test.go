package kernel

import (
	"errors"
	"strings"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/layout"
	"softsec/internal/mem"
)

// helloMain writes a greeting and returns 7.
const helloMain = `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 12
	mov eax, 1
	storew [esp], eax
	mov eax, greeting
	storew [esp+4], eax
	mov eax, 5
	storew [esp+8], eax
	call write
	mov eax, 7
	leave
	ret
	.data
greeting:
	.asciz "hello"
`

// echoMain reads up to `n` bytes into a 16-byte stack buffer and echoes
// them back. With n=16 it is safe; with n=32 it is the paper's Section
// III-A spatial vulnerability.
func echoMain(n int) string {
	return strings.ReplaceAll(`
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 32          ; 16-byte buf at ebp-16, arg area below
	mov eax, 0
	storew [esp], eax
	lea eax, [ebp-16]
	storew [esp+4], eax
	mov eax, $N
	storew [esp+8], eax
	call read
	mov ebx, 1
	storew [esp], ebx
	storew [esp+8], eax  ; echo back however many bytes arrived
	call write
	mov eax, 0
	leave
	ret
`, "$N", itoa(n))
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func mustLink(t *testing.T, srcs ...string) *Linked {
	t.Helper()
	imgs := []*asm.Image{Libc()}
	for i, s := range srcs {
		img, err := asm.Assemble("m"+itoa(i), s)
		if err != nil {
			t.Fatal(err)
		}
		imgs = append(imgs, img)
	}
	ld, err := Link(imgs...)
	if err != nil {
		t.Fatal(err)
	}
	return ld
}

func mustLoad(t *testing.T, ld *Linked, cfg Config) *Process {
	t.Helper()
	p, err := Load(ld, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestHelloWorld(t *testing.T) {
	p := mustLoad(t, mustLink(t, helloMain), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.CPU.ExitCode() != 7 {
		t.Fatalf("exit %d", p.CPU.ExitCode())
	}
	if got := p.Output.String(); got != "hello" {
		t.Fatalf("output %q", got)
	}
}

func TestEchoReadsScriptedInput(t *testing.T) {
	in := ScriptInput{[]byte("ABCDEF")}
	p := mustLoad(t, mustLink(t, echoMain(16)), Config{DEP: true, Input: &in})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if got := p.Output.String(); got != "ABCDEF" {
		t.Fatalf("echo %q", got)
	}
}

func TestReadEOFReturnsZero(t *testing.T) {
	p := mustLoad(t, mustLink(t, echoMain(16)), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.Output.Len() != 0 {
		t.Fatalf("output %q", p.Output.String())
	}
}

// TestSpatialOverflowSmashesFrame: reading 32 bytes into the 16-byte buffer
// must overwrite the saved base pointer and return address — the program
// then "returns" to an attacker-chosen address. With an unmapped target the
// process crashes, demonstrating undefined behaviour beyond the source
// semantics.
func TestSpatialOverflowSmashesFrame(t *testing.T) {
	// The distances from buf to the saved EBP and return address are the
	// classic profile's frame geometry, not constants of the machine.
	f := layout.Classic().Frame(false, 16)
	retOff := f.RetOffFrom(0)
	ebpOff := retOff - 4 // the saved EBP sits just below the return address
	payload := make([]byte, 32)
	copy(payload, "AAAAAAAAAAAAAAAA")
	for i := ebpOff; i < ebpOff+4; i++ {
		payload[i] = 0x42 // saved EBP
	}
	// Return address (just above the saved EBP) := 0x00000666 (unmapped).
	payload[retOff], payload[retOff+1], payload[retOff+2], payload[retOff+3] = 0x66, 0x06, 0x00, 0x00
	in := ScriptInput{payload}
	p := mustLoad(t, mustLink(t, echoMain(32)), Config{DEP: true, Input: &in})
	st := p.Run()
	if st != cpu.Faulted {
		t.Fatalf("state %v (exit %d)", st, p.CPU.ExitCode())
	}
	// The fault must be at the bogus return target.
	var mf *mem.Fault
	if !errors.As(p.CPU.Fault().Err, &mf) {
		t.Fatalf("fault %v", p.CPU.Fault())
	}
	if mf.Addr != 0x666 {
		t.Fatalf("faulted at 0x%x, want the smashed return address 0x666", mf.Addr)
	}
}

func TestCheckedLibcBlocksOversizedRead(t *testing.T) {
	// Same vulnerable program, but the buffer is registered with the
	// kernel registry and CheckedLibc is on: the read must abort with a
	// BoundsViolation before a single byte lands.
	src := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 32
	lea ebx, [ebp-16]    ; register buf, 16 bytes
	mov ecx, 16
	mov eax, 0x20
	int 0x80
	mov eax, 0
	storew [esp], eax
	lea eax, [ebp-16]
	storew [esp+4], eax
	mov eax, 32
	storew [esp+8], eax
	call read
	mov eax, 0
	leave
	ret
`
	in := ScriptInput{make([]byte, 32)}
	p := mustLoad(t, mustLink(t, src), Config{DEP: true, Input: &in, CheckedLibc: true})
	st := p.Run()
	if st != cpu.Faulted {
		t.Fatalf("state %v", st)
	}
	var bv *BoundsViolation
	if !errors.As(p.CPU.Fault().Err, &bv) {
		t.Fatalf("fault %v", p.CPU.Fault())
	}
	if bv.Size != 32 {
		t.Fatalf("violation %+v", bv)
	}
}

// permAt returns the permissions of the region holding addr, or zero
// when no region does.
func permAt(m *mem.Memory, addr uint32) mem.Perm {
	for _, r := range m.Regions() {
		if addr-r.Addr < r.Size {
			return r.Perm
		}
	}
	return 0
}

func TestDEPTogglesPagePermissions(t *testing.T) {
	ld := mustLink(t, helloMain)
	hardened := mustLoad(t, ld, Config{DEP: true})
	if p := permAt(hardened.Mem, hardened.Layout.Text); p != mem.RX {
		t.Errorf("DEP text perms %v", p)
	}
	if p := permAt(hardened.Mem, hardened.Layout.StackLow); p != mem.RW {
		t.Errorf("DEP stack perms %v", p)
	}
	legacy := mustLoad(t, ld, Config{DEP: false})
	if p := permAt(legacy.Mem, legacy.Layout.StackLow); p != mem.R|mem.W|mem.X {
		t.Errorf("legacy stack perms %v", p)
	}
	if p := permAt(legacy.Mem, legacy.Layout.Text); p&mem.W == 0 {
		t.Errorf("legacy text not writable: %v (code corruption needs this)", p)
	}
}

func TestASLRRandomizesAndPreservesCorrectness(t *testing.T) {
	ld := mustLink(t, helloMain)
	a := mustLoad(t, ld, Config{DEP: true, ASLR: true, ASLRSeed: 1})
	b := mustLoad(t, ld, Config{DEP: true, ASLR: true, ASLRSeed: 2})
	same := mustLoad(t, ld, Config{DEP: true, ASLR: true, ASLRSeed: 1})
	if a.Layout == b.Layout {
		t.Error("different seeds produced identical layouts")
	}
	if a.Layout != same.Layout {
		t.Error("same seed produced different layouts")
	}
	nom := NominalLayoutFor(nil)
	if a.Layout == nom {
		t.Error("ASLR produced the nominal layout")
	}
	// Relocation must keep the program fully functional at random bases.
	for _, p := range []*Process{a, b} {
		if st := p.Run(); st != cpu.Exited || p.Output.String() != "hello" {
			t.Fatalf("program broken under ASLR: %v %q fault %v",
				st, p.Output.String(), p.CPU.Fault())
		}
	}
}

func TestCanaryInstallation(t *testing.T) {
	ld := mustLink(t, helloMain)
	p1 := mustLoad(t, ld, Config{})
	addr, ok := p1.SymbolAddr("__canary")
	if !ok {
		t.Fatal("__canary symbol missing")
	}
	if got := p1.Mem.PeekWord(addr); got != DefaultCanary {
		t.Fatalf("default canary 0x%x", got)
	}
	p2 := mustLoad(t, ld, Config{CanarySeed: 99})
	addr2, _ := p2.SymbolAddr("__canary")
	if got := p2.Mem.PeekWord(addr2); got == DefaultCanary || got == 0 {
		t.Fatalf("seeded canary not randomized: 0x%x", got)
	}
	if p2.Canary != p2.Mem.PeekWord(addr2) {
		t.Fatal("Process.Canary out of sync with memory cell")
	}
}

func TestCrossModuleLinking(t *testing.T) {
	modA := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 4
	mov eax, 5
	storew [esp], eax
	call double_it
	leave
	ret
`
	modB := `
	.text
	.global double_it
double_it:
	push ebp
	mov ebp, esp
	loadw eax, [ebp+8]
	add eax, eax
	leave
	ret
`
	p := mustLoad(t, mustLink(t, modA, modB), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.CPU.ExitCode() != 10 {
		t.Fatalf("exit %d", p.CPU.ExitCode())
	}
}

func TestLinkErrors(t *testing.T) {
	dup := `
	.text
	.global main
main:
	ret
`
	if _, err := Link(Libc(), asm.MustAssemble("a", dup), asm.MustAssemble("b", dup)); err == nil {
		t.Error("duplicate global accepted")
	}
	undef := `
	.text
	.global main
main:
	call nowhere
	ret
`
	if _, err := Link(Libc(), asm.MustAssemble("u", undef)); err == nil {
		t.Error("undefined symbol accepted")
	}
	if _, err := Link(); err == nil {
		t.Error("empty link accepted")
	}
}

func TestModuleBounds(t *testing.T) {
	secret := `
	.text
	.entry get_secret
get_secret:
	mov eax, 666
	ret
`
	mainSrc := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	call get_secret
	leave
	ret
`
	ld := mustLink(t, mainSrc, secret)
	p := mustLoad(t, ld, Config{DEP: true})
	b, ok := p.Module("m1") // the secret module is the second user module
	if !ok {
		t.Fatal("module m1 missing")
	}
	if len(b.Entries) != 1 {
		t.Fatalf("entries %v", b.Entries)
	}
	ep := b.Entries[0]
	if ep < b.TextStart || ep >= b.TextEnd {
		t.Fatalf("entry 0x%x outside [0x%x,0x%x)", ep, b.TextStart, b.TextEnd)
	}
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 666 {
		t.Fatalf("state %v exit %d", st, p.CPU.ExitCode())
	}
}

func TestSbrkAndMalloc(t *testing.T) {
	src := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 4
	mov eax, 64
	storew [esp], eax
	call malloc
	mov ebx, eax         ; ptr
	mov ecx, 123
	storew [ebx], ecx    ; heap must be writable
	loadw eax, [ebx]
	leave
	ret
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.CPU.ExitCode() != 123 {
		t.Fatalf("exit %d", p.CPU.ExitCode())
	}
}

func TestLibcStringRoutines(t *testing.T) {
	src := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 12
	mov eax, msg
	storew [esp], eax
	call puts
	mov eax, buf
	storew [esp], eax
	mov eax, msg
	storew [esp+4], eax
	mov eax, 3
	storew [esp+8], eax
	call memcpy
	mov eax, buf
	storew [esp], eax
	call strlen
	leave
	ret
	.data
msg:
	.asciz "hey"
buf:
	.space 8
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.Output.String() != "hey\n" {
		t.Fatalf("puts output %q", p.Output.String())
	}
	if p.CPU.ExitCode() != 3 {
		t.Fatalf("strlen(memcpy'd) = %d", p.CPU.ExitCode())
	}
}

func TestSpawnShellMarker(t *testing.T) {
	src := `
	.text
	.global main
main:
	call spawn_shell
	ret
`
	p := mustLoad(t, mustLink(t, src), Config{DEP: true})
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 61 {
		t.Fatalf("state %v exit %d", st, p.CPU.ExitCode())
	}
	if p.Output.String() != "SHELL!" {
		t.Fatalf("output %q", p.Output.String())
	}
}

func TestSyscallTrace(t *testing.T) {
	in := ScriptInput{[]byte("hi")}
	p := mustLoad(t, mustLink(t, echoMain(16)), Config{DEP: true, Input: &in, TraceSyscalls: true})
	p.Run()
	if len(p.SyscallLog) != 3 { // read, write, exit
		t.Fatalf("trace %v", p.SyscallLog)
	}
	if !strings.HasPrefix(p.SyscallLog[0], "read(0") {
		t.Fatalf("trace %v", p.SyscallLog)
	}
}

// InputFunc adapts a function to InputSource.
type InputFunc func(max int, outputSoFar []byte) []byte

// NextInput implements InputSource.
func (f InputFunc) NextInput(max int, out []byte) []byte { return f(max, out) }

func TestAdaptiveInputSeesOutput(t *testing.T) {
	// The input source must observe prior output — the hook adaptive
	// info-leak exploits use.
	var sawOutput string
	src := InputFunc(func(max int, out []byte) []byte {
		sawOutput = string(out)
		return []byte("X")
	})
	// Program: write "LEAK", then read 1 byte, then exit.
	prog := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 16
	mov eax, 1
	storew [esp], eax
	mov eax, leakmsg
	storew [esp+4], eax
	mov eax, 4
	storew [esp+8], eax
	call write
	mov eax, 0
	storew [esp], eax
	lea eax, [ebp-4]
	storew [esp+4], eax
	mov eax, 1
	storew [esp+8], eax
	call read
	mov eax, 0
	leave
	ret
	.data
leakmsg:
	.asciz "LEAK"
`
	p := mustLoad(t, mustLink(t, prog), Config{DEP: true, Input: src})
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if sawOutput != "LEAK" {
		t.Fatalf("adaptive source saw %q", sawOutput)
	}
}

func TestSymbolAddrAndQualifiedNames(t *testing.T) {
	ld := mustLink(t, helloMain)
	p := mustLoad(t, ld, Config{DEP: true})
	if _, ok := p.SymbolAddr("libc.read"); !ok {
		t.Error("qualified libc.read missing")
	}
	a1, _ := p.SymbolAddr("read")
	a2, _ := p.SymbolAddr("libc.read")
	if a1 != a2 || a1 == 0 {
		t.Errorf("read addrs 0x%x 0x%x", a1, a2)
	}
	if _, ok := p.SymbolAddr("no_such_symbol"); ok {
		t.Error("bogus symbol resolved")
	}
}
