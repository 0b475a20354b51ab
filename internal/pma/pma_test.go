package pma

import (
	"bytes"
	"errors"
	"testing"

	"softsec/internal/asm"
	"softsec/internal/attack"
	"softsec/internal/cpu"
	"softsec/internal/kernel"
)

// secretModAsm is a hand-written protected-module version of the paper's
// Figure 2/3 secret module, with get_secret as the single entry point.
const secretModAsm = `
	.text
	.entry get_secret
get_secret:                 ; get_secret(provided_pin)
	mov ecx, tries_left
	loadw eax, [ecx]
	cmp eax, 0
	jle locked
	loadw eax, [esp+4]      ; provided pin (caller stack — readable from inside)
	mov ecx, PIN
	loadw edx, [ecx]
	cmp eax, edx
	jnz wrong
	mov ecx, tries_left
	mov edx, 3
	storew [ecx], edx       ; reset tries
	mov ecx, secret
	loadw eax, [ecx]
	ret
wrong:
	mov ecx, tries_left
	loadw edx, [ecx]
	sub edx, 1
	storew [ecx], edx
locked:
	mov eax, 0
	ret

	.data
tries_left:
	.word 3
PIN:
	.word 1234
secret:
	.word 666
`

// pinMain calls get_secret(pin) once and exits with the result.
func pinMain(pin uint32) *asm.Image {
	src := `
	.text
	.global main
main:
	push ebp
	mov ebp, esp
	sub esp, 4
	mov eax, ` + itoa(pin) + `
	storew [esp], eax
	call get_secret
	leave
	ret
`
	return asm.MustAssemble("m", src)
}

func itoa(n uint32) string {
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

func protectedProcess(t *testing.T, mainImg *asm.Image) (*kernel.Process, *Policy) {
	t.Helper()
	secret := asm.MustAssemble("secretmod", secretModAsm)
	ld, err := kernel.Link(kernel.Libc(), secret, mainImg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kernel.Load(ld, kernel.Config{DEP: true})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := Protect(p, "secretmod")
	if err != nil {
		t.Fatal(err)
	}
	return p, pol
}

func TestEntryPointCallWorks(t *testing.T) {
	p, _ := protectedProcess(t, pinMain(1234))
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	if p.CPU.ExitCode() != 666 {
		t.Fatalf("exit %d, want the secret for the right PIN", p.CPU.ExitCode())
	}
}

func TestWrongPinDecrements(t *testing.T) {
	p, _ := protectedProcess(t, pinMain(1111))
	if st := p.Run(); st != cpu.Exited || p.CPU.ExitCode() != 0 {
		t.Fatalf("state %v exit %d", st, p.CPU.ExitCode())
	}
	addr, _ := p.SymbolAddr("secretmod.tries_left")
	if got := p.Mem.PeekWord(addr); got != 2 {
		t.Fatalf("tries_left %d, want 2", got)
	}
}

// TestScraperBlockedByPMA is the paper's Figure 3: the in-process memory
// scraper that succeeded against the flat layout faults on its first load
// from protected data.
func TestScraperBlockedByPMA(t *testing.T) {
	lo := kernel.NominalData
	scraper, err := attack.ScraperModule(lo, lo+0x1000, []byte{0xd2, 0x04, 0x00, 0x00})
	if err != nil {
		t.Fatal(err)
	}
	scraper.Symbols["main"].Global = true
	p, _ := protectedProcess(t, scraper)
	st := p.Run()
	if st != cpu.Faulted || p.CPU.Fault().Kind != cpu.FaultPolicy {
		t.Fatalf("state %v fault %v, want a PMA policy fault", st, p.CPU.Fault())
	}
	var v *Violation
	if !errors.As(p.CPU.Fault().Err, &v) || v.Module != "secretmod" {
		t.Fatalf("violation %v", p.CPU.Fault().Err)
	}
	if bytes.Contains(p.Output.Bytes(), []byte{0x9a, 0x02}) {
		t.Fatal("secret leaked despite PMA")
	}
}

func TestJumpIntoModuleMidCodeBlocked(t *testing.T) {
	// Rule 3: entering anywhere but an entry point is refused — even one
	// byte past the entry.
	mainSrc := asm.MustAssemble("m", `
	.text
	.global main
main:
	mov eax, get_secret
	add eax, 2
	jmp eax
`)
	p, _ := protectedProcess(t, mainSrc)
	st := p.Run()
	if st != cpu.Faulted || p.CPU.Fault().Kind != cpu.FaultPolicy {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	var v *Violation
	if !errors.As(p.CPU.Fault().Err, &v) || v.Rule != "enter-not-entry" {
		t.Fatalf("violation %v", p.CPU.Fault().Err)
	}
}

func TestSequentialFallThroughIntoModuleBlocked(t *testing.T) {
	// Executing up to the module boundary and falling through is an
	// entry without an entry point.
	mainSrc := asm.MustAssemble("m", `
	.text
	.global main
main:
	mov eax, get_secret
	jmp eax              ; jump exactly at the entry — allowed...
`)
	// ...so make the entry the *second* module; easier: jump to one byte
	// before the module and fall in. We approximate by jumping to the
	// last byte of libc text, which precedes the module; that byte may
	// not decode, so instead test the documented behavior directly at
	// the policy level.
	_ = mainSrc
	pol, err := NewPolicy(Module{
		Name: "m", CodeStart: 0x1000, CodeEnd: 0x2000,
		DataStart: 0x3000, DataEnd: 0x4000, Entries: []uint32{0x1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pol.CheckExec(0xFFF, 0x1004); err == nil {
		t.Fatal("fall-through into module mid-code allowed")
	}
	if err := pol.CheckExec(0xFFF, 0x1000); err != nil {
		t.Fatalf("entry via entry point refused: %v", err)
	}
	if err := pol.CheckExec(0x1004, 0x1008); err != nil {
		t.Fatalf("internal flow refused: %v", err)
	}
	if err := pol.CheckExec(0x1004, 0x9000); err != nil {
		t.Fatalf("leaving refused: %v", err)
	}
}

func TestPolicyPrimitives(t *testing.T) {
	m := Module{
		Name: "m", CodeStart: 0x1000, CodeEnd: 0x2000,
		DataStart: 0x3000, DataEnd: 0x4000, Entries: []uint32{0x1000},
	}
	pol, err := NewPolicy(m)
	if err != nil {
		t.Fatal(err)
	}
	// Rule 1: outside IP cannot touch module data or code.
	if err := pol.CheckRead(0x9000, 0x3000, 4); err == nil {
		t.Error("outside read of module data allowed")
	}
	if err := pol.CheckRead(0x9000, 0x1000, 4); err == nil {
		t.Error("outside read of module code allowed")
	}
	if err := pol.CheckWrite(0x9000, 0x3000, 4); err == nil {
		t.Error("outside write of module data allowed")
	}
	// Rule 2: inside IP has full data access, plus outside memory.
	if err := pol.CheckRead(0x1004, 0x3000, 4); err != nil {
		t.Errorf("inside read refused: %v", err)
	}
	if err := pol.CheckWrite(0x1004, 0x3FFC, 4); err != nil {
		t.Errorf("inside write refused: %v", err)
	}
	if err := pol.CheckRead(0x1004, 0x9000, 4); err != nil {
		t.Errorf("inside read of outside memory refused: %v", err)
	}
	// W^X within the module: even inside may not write code.
	if err := pol.CheckWrite(0x1004, 0x1100, 4); err == nil {
		t.Error("inside write to module code allowed")
	}
	// Module data never executes.
	if err := pol.CheckExec(0x1004, 0x3000); err == nil {
		t.Error("exec of module data allowed")
	}
	// Straddling access: last byte inside the module is refused too.
	if err := pol.CheckRead(0x9000, 0x2FFE, 4); err == nil {
		t.Error("straddling read allowed")
	}
}

func TestMultiModuleMutualDistrust(t *testing.T) {
	a := Module{Name: "a", CodeStart: 0x1000, CodeEnd: 0x2000,
		DataStart: 0x3000, DataEnd: 0x4000, Entries: []uint32{0x1000}}
	b := Module{Name: "b", CodeStart: 0x5000, CodeEnd: 0x6000,
		DataStart: 0x7000, DataEnd: 0x8000, Entries: []uint32{0x5000}}
	pol, err := NewPolicy(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Module a cannot read b's data...
	if err := pol.CheckRead(0x1004, 0x7000, 4); err == nil {
		t.Error("cross-module read allowed")
	}
	// ...but can call b's entry point.
	if err := pol.CheckExec(0x1004, 0x5000); err != nil {
		t.Errorf("cross-module entry refused: %v", err)
	}
	// And may not jump into b's middle.
	if err := pol.CheckExec(0x1004, 0x5004); err == nil {
		t.Error("cross-module mid-jump allowed")
	}
}

func TestNewPolicyValidation(t *testing.T) {
	a := Module{Name: "a", CodeStart: 0x1000, CodeEnd: 0x2000, Entries: []uint32{0x1000}}
	b := Module{Name: "b", CodeStart: 0x1800, CodeEnd: 0x2800, Entries: []uint32{0x1800}}
	if _, err := NewPolicy(a, b); err == nil {
		t.Error("overlapping modules accepted")
	}
	bad := Module{Name: "c", CodeStart: 0x1000, CodeEnd: 0x2000, Entries: []uint32{0x9000}}
	if _, err := NewPolicy(bad); err == nil {
		t.Error("entry outside code accepted")
	}
}

// TestKernelScrapeDefeated: the kernel-level scraper that reads everything
// on a classic machine sees only abort values over protected ranges.
func TestKernelScrapeDefeated(t *testing.T) {
	// The caller must not embed the PIN as an immediate, or the scan
	// finds that copy in *unprotected* text.
	p, pol := protectedProcess(t, pinMain(1111))
	pin := []byte{0xd2, 0x04, 0x00, 0x00}
	// Without PMA semantics the PIN is visible...
	if hits := attack.KernelScrape(p, pin); len(hits) == 0 {
		t.Fatal("baseline: kernel scraper should see the PIN on a classic machine")
	}
	// ...with PMA the same scan over the same process finds nothing.
	if hits := pol.KernelScrape(p, pin); len(hits) != 0 {
		t.Fatalf("PMA kernel scrape found PIN at %x", hits)
	}
}

func TestKernelCopyGuard(t *testing.T) {
	// A syscall must not be usable as a confused deputy to write into a
	// module: read(0, <module data>, 4) returns EFAULT.
	mainSrc := asm.MustAssemble("m", `
	.text
	.global main
main:
	mov ebx, 0
	mov ecx, tries_left_addr
	loadw ecx, [ecx]
	mov edx, 4
	mov eax, 3
	int 0x80
	ret
	.data
tries_left_addr:
	.word 0
`)
	p, _ := protectedProcess(t, mainSrc)
	// Plant the module's tries_left address where main reads it.
	taddr, _ := p.SymbolAddr("secretmod.tries_left")
	cell, _ := p.SymbolAddr("m.tries_left_addr")
	p.Mem.PokeWord(cell, taddr)
	in := kernel.ScriptInput{[]byte{9, 9, 9, 9}}
	p.Config.Input = &in
	if st := p.Run(); st != cpu.Exited {
		t.Fatalf("state %v fault %v", st, p.CPU.Fault())
	}
	// EFAULT is -14.
	if got := int32(p.CPU.ExitCode()); got != -14 {
		t.Fatalf("read into module returned %d, want -EFAULT", got)
	}
	if got := p.Mem.PeekWord(taddr); got != 3 {
		t.Fatalf("tries_left corrupted to %d via syscall", got)
	}
}

func TestAttestationGenuineVsTampered(t *testing.T) {
	hw := NewHardware(1)
	p, pol := protectedProcess(t, pinMain(1234))
	m := pol.Modules()[0]
	code, _ := p.Mem.PeekRaw(m.CodeStart, int(m.CodeEnd-m.CodeStart))
	// Provisioning: the provider derives the expected module key.
	providerKey := hw.ModuleKey(CodeHash(code))

	nonce := []byte("fresh-challenge-123")
	report := hw.Attest(p, m, nonce)
	if !VerifyAttestation(providerKey, nonce, report) {
		t.Fatal("genuine module failed attestation")
	}
	// A malicious OS patches one byte of module code before load.
	p.Mem.PokeWord(m.CodeStart, p.Mem.PeekWord(m.CodeStart)^1)
	tampered := hw.Attest(p, m, nonce)
	if VerifyAttestation(providerKey, nonce, tampered) {
		t.Fatal("tampered module attested successfully")
	}
	// Replay with a different nonce must fail as well.
	if VerifyAttestation(providerKey, []byte("other-nonce"), report) {
		t.Fatal("attestation replay verified under a different nonce")
	}
}

func TestSealUnsealRoundTrip(t *testing.T) {
	hw := NewHardware(7)
	key := hw.ModuleKey(CodeHash([]byte("module code")))
	blob, err := hw.Seal(key, []byte("state{tries=2}"), []byte("aux"))
	if err != nil {
		t.Fatal(err)
	}
	pt, err := hw.Unseal(key, blob, []byte("aux"))
	if err != nil || string(pt) != "state{tries=2}" {
		t.Fatalf("unseal: %q %v", pt, err)
	}
	// Wrong aux, wrong key, bit flips: all must fail.
	if _, err := hw.Unseal(key, blob, []byte("AUX")); err == nil {
		t.Error("aux tampering accepted")
	}
	otherKey := hw.ModuleKey(CodeHash([]byte("other code")))
	if _, err := hw.Unseal(otherKey, blob, []byte("aux")); err == nil {
		t.Error("foreign key accepted")
	}
	blob[len(blob)-1] ^= 1
	if _, err := hw.Unseal(key, blob, []byte("aux")); err == nil {
		t.Error("ciphertext tampering accepted")
	}
}

func TestCountersMonotonic(t *testing.T) {
	hw := NewHardware(3)
	if hw.CounterRead("m") != 0 {
		t.Fatal("fresh counter not zero")
	}
	if hw.CounterIncrement("m") != 1 || hw.CounterIncrement("m") != 2 {
		t.Fatal("increment broken")
	}
	if hw.CounterRead("other") != 0 {
		t.Fatal("counters not namespaced")
	}
}

// TestPolicyInvariantProperty: for arbitrary addresses, an instruction
// pointer outside every module can never read or write an address inside
// any module — rule 1 as a property over the whole address space.
func TestPolicyInvariantProperty(t *testing.T) {
	m1 := Module{Name: "a", CodeStart: 0x1000, CodeEnd: 0x3000,
		DataStart: 0x8000, DataEnd: 0x9000, Entries: []uint32{0x1000}}
	m2 := Module{Name: "b", CodeStart: 0x5000, CodeEnd: 0x6000,
		DataStart: 0xA000, DataEnd: 0xB000, Entries: []uint32{0x5000}}
	pol, err := NewPolicy(m1, m2)
	if err != nil {
		t.Fatal(err)
	}
	inAny := func(a uint32) bool {
		return m1.contains(a) || m2.contains(a)
	}
	rng := newDetRand()
	for i := 0; i < 20000; i++ {
		ip := rng()
		addr := rng()
		readOK := pol.CheckRead(ip, addr, 1) == nil
		writeOK := pol.CheckWrite(ip, addr, 1) == nil
		switch {
		case !inAny(ip) && inAny(addr):
			if readOK || writeOK {
				t.Fatalf("outside ip 0x%x accessed inside addr 0x%x", ip, addr)
			}
		case !inAny(addr):
			if !readOK {
				t.Fatalf("access to unprotected 0x%x from 0x%x denied", addr, ip)
			}
		}
		// Exec rule: entering a module is only ever legal at an entry.
		to := rng()
		if pol.CheckExec(ip, to) == nil {
			if m1.inCode(to) && !m1.inCode(ip) && !m1.isEntry(to) {
				t.Fatalf("non-entry entry into a: 0x%x -> 0x%x", ip, to)
			}
			if m2.inCode(to) && !m2.inCode(ip) && !m2.isEntry(to) {
				t.Fatalf("non-entry entry into b: 0x%x -> 0x%x", ip, to)
			}
		}
	}
}

// newDetRand is a tiny deterministic generator biased toward module
// boundaries, where off-by-one bugs in range checks live.
func newDetRand() func() uint32 {
	state := uint32(0x12345678)
	interesting := []uint32{
		0x0FFF, 0x1000, 0x1001, 0x2FFF, 0x3000, 0x4FFF, 0x5000, 0x5FFF,
		0x6000, 0x7FFF, 0x8000, 0x8FFF, 0x9000, 0x9FFF, 0xA000, 0xAFFF,
		0xB000, 0xC000,
	}
	n := 0
	return func() uint32 {
		n++
		if n%3 == 0 {
			return interesting[n/3%len(interesting)]
		}
		state ^= state << 13
		state ^= state >> 17
		state ^= state << 5
		return state % 0xD000
	}
}

// TestCompileBlockCheck pins the block-span summary against the access
// rules: spans inside module code or fully outside are summarizable,
// anything touching module data or straddling a boundary is refused
// (conservative fallback to stepping), and dataFree holds only for a
// module-less policy.
func TestCompileBlockCheck(t *testing.T) {
	mod := Module{
		Name:      "m",
		CodeStart: 0x1000, CodeEnd: 0x2000,
		DataStart: 0x3000, DataEnd: 0x4000,
		Entries: []uint32{0x1000},
	}
	pol, err := NewPolicy(mod)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name       string
		start, end uint32
		ok         bool
	}{
		{"inside code", 0x1100, 0x1200, true},
		{"inside code to exact end", 0x1100, 0x2000, true},
		{"outside everything", 0x5000, 0x5040, true},
		{"just below code", 0x0f00, 0x0fff, true},
		{"straddles code entry", 0x0f80, 0x1080, false},
		{"straddles code exit", 0x1f80, 0x2080, false},
		{"overlaps data", 0x2f80, 0x3010, false},
		{"inside data", 0x3100, 0x3200, false},
		{"ends at data start", 0x2f00, 0x3000, false},
	}
	for _, tc := range cases {
		dataFree, ok := pol.CompileBlockCheck(tc.start, tc.end)
		if ok != tc.ok {
			t.Errorf("%s: ok = %v, want %v", tc.name, ok, tc.ok)
		}
		if dataFree {
			t.Errorf("%s: dataFree must never hold with a module installed", tc.name)
		}
	}

	empty, err := NewPolicy()
	if err != nil {
		t.Fatal(err)
	}
	if dataFree, ok := empty.CompileBlockCheck(0x1000, 0x2000); !dataFree || !ok {
		t.Errorf("module-less policy: got (%v, %v), want (true, true)", dataFree, ok)
	}
}
