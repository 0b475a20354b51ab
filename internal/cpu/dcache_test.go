package cpu

import (
	"errors"
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

// newRWXMachine is newMachine with a writable+executable text segment —
// the historical no-DEP layout self-modifying code needs.
func newRWXMachine(t *testing.T, code []byte) *CPU {
	t.Helper()
	m := mem.New()
	if err := m.Map(textBase, 0x4000, mem.RWX); err != nil {
		t.Fatal(err)
	}
	if err := m.Map(stackBase, 0x10000, mem.RW); err != nil {
		t.Fatal(err)
	}
	if err := m.LoadRaw(textBase, code); err != nil {
		t.Fatal(err)
	}
	c := New(m)
	c.IP = textBase
	c.Reg[isa.ESP] = stackTop
	return c
}

// TestSelfModifyingProgram executes an instruction, overwrites one of its
// bytes from within the program (a STOREB on the RWX page), branches back
// and executes it again. The second execution must observe the new byte —
// a stale decode cache would leave EBX at the original 0x11.
func TestSelfModifyingProgram(t *testing.T) {
	// Layout (T = textBase):
	//  T+0  target: movi ebx, 0x11     (5)  — patched to 0x22 mid-run
	//  T+5          cmp  edx, 0        (6)
	//  T+11         jnz  done          (5)
	//  T+16         movi edx, 1        (5)
	//  T+21         movi eax, 0x22     (5)
	//  T+26         movi ecx, T+1      (5)  — address of target's imm byte
	//  T+31         storeb [ecx+0], eax(6)
	//  T+37         jmp  target        (5)  rel = T - (T+42) = -42
	//  T+42 done:   hlt
	code := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 0x11},
		isa.Instr{Op: isa.CMPI, Rd: isa.EDX, Imm: 0},
		isa.Instr{Op: isa.JNZ, Imm: 26},
		isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: 1},
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x22},
		isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: textBase + 1},
		isa.Instr{Op: isa.STOREB, Rd: isa.ECX, Rs: isa.EAX, Imm: 0},
		isa.Instr{Op: isa.JMP, Imm: ^uint32(41)}, // -42
		isa.Instr{Op: isa.HLT},
	)
	c := newRWXMachine(t, code)
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
	if c.Reg[isa.EBX] != 0x22 {
		t.Fatalf("ebx = %#x, want 0x22 (stale decode served after self-modify)", c.Reg[isa.EBX])
	}
}

// TestWriteInvalidatesDecode: a permission-checked write to an executable
// page invalidates a previously cached decode of the same address.
func TestWriteInvalidatesDecode(t *testing.T) {
	c := newRWXMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.HLT},
	))
	if !c.Step() {
		t.Fatalf("step: %v", c.Fault())
	}
	if c.Reg[isa.EAX] != 1 {
		t.Fatalf("eax = %d, want 1", c.Reg[isa.EAX])
	}
	patched := build(isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 2})
	if _, err := c.Mem.WriteBytes(textBase, patched); err != nil {
		t.Fatal(err)
	}
	c.IP = textBase
	if !c.Step() {
		t.Fatalf("step: %v", c.Fault())
	}
	if c.Reg[isa.EAX] != 2 {
		t.Fatalf("eax = %d, want 2 (stale decode)", c.Reg[isa.EAX])
	}
}

// TestLoadRawInvalidatesDecode: raw loader writes (the code-injection
// path internal/attack uses in kernel mode) also invalidate.
func TestLoadRawInvalidatesDecode(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.HLT},
	))
	if !c.Step() {
		t.Fatalf("step: %v", c.Fault())
	}
	if err := c.Mem.LoadRaw(textBase, build(isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 2})); err != nil {
		t.Fatal(err)
	}
	c.IP = textBase
	if !c.Step() {
		t.Fatalf("step: %v", c.Fault())
	}
	if c.Reg[isa.EAX] != 2 {
		t.Fatalf("eax = %d, want 2 after LoadRaw", c.Reg[isa.EAX])
	}
}

// TestPokeWordInvalidatesDecode: PokeWord (debugger/attack tooling) over
// an instruction's immediate is observed by the next fetch.
func TestPokeWordInvalidatesDecode(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.HLT},
	))
	if !c.Step() {
		t.Fatalf("step: %v", c.Fault())
	}
	c.Mem.PokeWord(textBase+1, 0x22) // the MOVI immediate
	c.IP = textBase
	if !c.Step() {
		t.Fatalf("step: %v", c.Fault())
	}
	if c.Reg[isa.EAX] != 0x22 {
		t.Fatalf("eax = %#x, want 0x22 after PokeWord", c.Reg[isa.EAX])
	}
}

// blockStores denies all writes; used to prove a policy installed between
// steps is bound before the next instruction executes.
type blockStores struct{}

func (blockStores) CheckRead(ip, addr uint32, size int) error  { return nil }
func (blockStores) CheckWrite(ip, addr uint32, size int) error { return errors.New("no stores") }
func (blockStores) CheckExec(from, to uint32) error            { return nil }

func TestPolicyInstallBetweenSteps(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 7},
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: stackBase},
		isa.Instr{Op: isa.STOREW, Rd: isa.EBX, Rs: isa.EAX, Imm: 0},
		isa.Instr{Op: isa.HLT},
	))
	if !c.Step() || !c.Step() {
		t.Fatalf("setup steps: %v", c.Fault())
	}
	// Install a policy mid-run, as pma.Protect does after loading.
	c.Policy = blockStores{}
	if c.Step() {
		t.Fatal("store allowed despite freshly installed policy")
	}
	if f := c.Fault(); f == nil || f.Kind != FaultPolicy {
		t.Fatalf("fault %v, want policy fault", c.Fault())
	}
}

// TestSharedMemoryInvalidation: two CPUs over one address space each keep
// a private decode cache, but both observe a write that changes code.
func TestSharedMemoryInvalidation(t *testing.T) {
	code := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.HLT},
	)
	c1 := newRWXMachine(t, code)
	c2 := New(c1.Mem)
	c2.IP = textBase
	c2.Reg[isa.ESP] = stackTop

	if !c1.Step() || !c2.Step() {
		t.Fatal("warm-up steps failed")
	}
	if _, err := c1.Mem.WriteBytes(textBase, build(isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 9})); err != nil {
		t.Fatal(err)
	}
	c1.IP, c2.IP = textBase, textBase
	if !c1.Step() || !c2.Step() {
		t.Fatal("re-execution failed")
	}
	if c1.Reg[isa.EAX] != 9 || c2.Reg[isa.EAX] != 9 {
		t.Fatalf("eax = %d/%d, want 9/9", c1.Reg[isa.EAX], c2.Reg[isa.EAX])
	}
}
