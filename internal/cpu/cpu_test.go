package cpu

import (
	"errors"
	"fmt"
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

const (
	textBase  = uint32(0x08048000)
	stackBase = uint32(0xBFFF0000)
	stackTop  = uint32(0xBFFFF000)
)

// build assembles a sequence of instructions into a byte slice.
func build(ins ...isa.Instr) []byte {
	var code []byte
	for _, in := range ins {
		code = isa.MustEncode(code, in)
	}
	return code
}

// newMachine maps a text segment holding code (r-x) and a stack (rw-),
// returning a CPU ready to run at textBase.
func newMachine(t *testing.T, code []byte) *CPU {
	t.Helper()
	m := mem.New()
	if err := m.Map(textBase, 0x4000, mem.RX); err != nil {
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

func TestMoveAndArithmetic(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 10},
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 3},
		isa.Instr{Op: isa.MOV, Rd: isa.ECX, Rs: isa.EAX},
		isa.Instr{Op: isa.ADD, Rd: isa.ECX, Rs: isa.EBX},  // 13
		isa.Instr{Op: isa.IMUL, Rd: isa.ECX, Rs: isa.EBX}, // 39
		isa.Instr{Op: isa.SUBI, Rd: isa.ECX, Imm: 4},      // 35
		isa.Instr{Op: isa.IDIV, Rd: isa.ECX, Rs: isa.EBX}, // 11
		isa.Instr{Op: isa.IMOD, Rd: isa.ECX, Rs: isa.EBX}, // 2
		isa.Instr{Op: isa.HLT},
	))
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if c.Reg[isa.ECX] != 2 {
		t.Fatalf("ecx = %d, want 2", c.Reg[isa.ECX])
	}
	if c.Steps != 9 {
		t.Fatalf("steps = %d, want 9", c.Steps)
	}
}

func TestSignedArithmeticAndShifts(t *testing.T) {
	neg5 := uint32(0xFFFFFFFB)
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: neg5},
		isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: 2},
		isa.Instr{Op: isa.SAR, Rd: isa.EAX, Rs: isa.ECX}, // -5>>2 = -2
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: neg5},
		isa.Instr{Op: isa.NEG, Rd: isa.EBX}, // 5
		isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: 1},
		isa.Instr{Op: isa.MOVI, Rd: isa.ESI, Imm: 4},
		isa.Instr{Op: isa.SHL, Rd: isa.EDX, Rs: isa.ESI}, // 16
		isa.Instr{Op: isa.HLT},
	))
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if int32(c.Reg[isa.EAX]) != -2 {
		t.Errorf("sar: got %d want -2", int32(c.Reg[isa.EAX]))
	}
	if c.Reg[isa.EBX] != 5 {
		t.Errorf("neg: got %d", c.Reg[isa.EBX])
	}
	if c.Reg[isa.EDX] != 16 {
		t.Errorf("shl: got %d", c.Reg[isa.EDX])
	}
}

func TestPushPopStackDiscipline(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x41424344},
		isa.Instr{Op: isa.PUSH, Rd: isa.EAX},
		isa.Instr{Op: isa.PUSHI, Imm: 0x11},
		isa.Instr{Op: isa.POP, Rd: isa.EBX},
		isa.Instr{Op: isa.POP, Rd: isa.ECX},
		isa.Instr{Op: isa.HLT},
	))
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if c.Reg[isa.EBX] != 0x11 || c.Reg[isa.ECX] != 0x41424344 {
		t.Fatalf("pop order wrong: ebx=0x%x ecx=0x%x", c.Reg[isa.EBX], c.Reg[isa.ECX])
	}
	if c.Reg[isa.ESP] != stackTop {
		t.Fatalf("esp not restored: 0x%x", c.Reg[isa.ESP])
	}
}

func TestStackGrowsDown(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.PUSHI, Imm: 1},
		isa.Instr{Op: isa.HLT},
	))
	c.Run(10)
	if c.Reg[isa.ESP] != stackTop-4 {
		t.Fatalf("esp = 0x%x, want 0x%x", c.Reg[isa.ESP], stackTop-4)
	}
}

func TestCallRetMechanics(t *testing.T) {
	// call +1 (skip the hlt at fallthrough); callee: mov eax, 7; ret.
	// Layout: [call rel][hlt][mov eax,7][ret]
	callee := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 7},
		isa.Instr{Op: isa.RET},
	)
	prog := build(
		isa.Instr{Op: isa.CALL, Imm: 1}, // skip 1-byte HLT
		isa.Instr{Op: isa.HLT},
	)
	prog = append(prog, callee...)
	c := newMachine(t, prog)
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if c.Reg[isa.EAX] != 7 {
		t.Fatalf("callee did not run: eax=%d", c.Reg[isa.EAX])
	}
	if c.Reg[isa.ESP] != stackTop {
		t.Fatalf("ret did not pop return address")
	}
}

// TestReturnAddressLivesOnStack verifies the property every stack-smashing
// attack depends on: CALL stores the return address in writable stack
// memory, and RET jumps to whatever that word then contains.
func TestReturnAddressLivesOnStack(t *testing.T) {
	// target:  mov eax, 0x77; hlt        (at textBase+20)
	// callee:  overwrite [esp] with target addr; ret
	prog := build(
		isa.Instr{Op: isa.CALL, Imm: 1}, // to callee at +6
		isa.Instr{Op: isa.HLT},          // normal return would land here
	)
	callee := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: textBase + 17},
		isa.Instr{Op: isa.STOREW, Rd: isa.ESP, Rs: isa.EAX, Imm: 0},
		isa.Instr{Op: isa.RET},
	)
	prog = append(prog, callee...) // callee at +6, len 12 → target at +18? compute below
	target := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x77},
		isa.Instr{Op: isa.HLT},
	)
	// target begins right after prog; patch the MOVI above if layout moved.
	targetAddr := textBase + uint32(len(prog))
	prog = append(prog, target...)
	c := newMachine(t, prog)
	// Fix the address constant (offset 7 = first MOVI imm inside callee).
	c.Mem.PokeWord(textBase+6+1, targetAddr)
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if c.Reg[isa.EAX] != 0x77 {
		t.Fatalf("control-flow hijack via stack write failed: eax=0x%x", c.Reg[isa.EAX])
	}
}

func TestLeave(t *testing.T) {
	// Standard prologue/epilogue pair restores ESP/EBP.
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EBP, Imm: 0x1234},
		isa.Instr{Op: isa.PUSH, Rd: isa.EBP},
		isa.Instr{Op: isa.MOV, Rd: isa.EBP, Rs: isa.ESP},
		isa.Instr{Op: isa.SUBI, Rd: isa.ESP, Imm: 0x18},
		isa.Instr{Op: isa.LEAVE},
		isa.Instr{Op: isa.HLT},
	))
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if c.Reg[isa.EBP] != 0x1234 {
		t.Fatalf("ebp not restored: 0x%x", c.Reg[isa.EBP])
	}
	if c.Reg[isa.ESP] != stackTop {
		t.Fatalf("esp not restored: 0x%x", c.Reg[isa.ESP])
	}
}

func TestLoadStoreByteAndWord(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.ESI, Imm: stackBase + 0x100},
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x11223344},
		isa.Instr{Op: isa.STOREW, Rd: isa.ESI, Rs: isa.EAX, Imm: 0},
		isa.Instr{Op: isa.LOADB, Rd: isa.EBX, Rs: isa.ESI, Imm: 0}, // LE low byte
		isa.Instr{Op: isa.LOADB, Rd: isa.ECX, Rs: isa.ESI, Imm: 3},
		isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: 0xFF},
		isa.Instr{Op: isa.STOREB, Rd: isa.ESI, Rs: isa.EDX, Imm: 1},
		isa.Instr{Op: isa.LOADW, Rd: isa.EDI, Rs: isa.ESI, Imm: 0},
		isa.Instr{Op: isa.HLT},
	))
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v, fault %v", st, c.Fault())
	}
	if c.Reg[isa.EBX] != 0x44 || c.Reg[isa.ECX] != 0x11 {
		t.Fatalf("byte loads wrong: ebx=0x%x ecx=0x%x", c.Reg[isa.EBX], c.Reg[isa.ECX])
	}
	if c.Reg[isa.EDI] != 0x1122FF44 {
		t.Fatalf("byte store wrong: 0x%x", c.Reg[isa.EDI])
	}
}

func TestConditionalJumps(t *testing.T) {
	cases := []struct {
		name  string
		a, b  uint32
		op    isa.Op
		taken bool
	}{
		{"jz equal", 5, 5, isa.JZ, true},
		{"jz diff", 5, 6, isa.JZ, false},
		{"jnz diff", 5, 6, isa.JNZ, true},
		{"jl signed", 0xFFFFFFFF, 1, isa.JL, true},    // -1 < 1
		{"jb unsigned", 0xFFFFFFFF, 1, isa.JB, false}, // 0xFFFFFFFF !< 1
		{"jb small", 1, 2, isa.JB, true},
		{"jg greater", 10, 3, isa.JG, true},
		{"jge equal", 3, 3, isa.JGE, true},
		{"jle less", 2, 3, isa.JLE, true},
		{"ja unsigned", 0xFFFFFFFF, 1, isa.JA, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// cmp a,b; jcc +5 (skip mov eax,1); mov eax,1; hlt / taken: mov eax,2; hlt
			c := newMachine(t, build(
				isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0},
				isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: tc.a},
				isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: tc.b},
				isa.Instr{Op: isa.CMP, Rd: isa.EBX, Rs: isa.ECX},
				isa.Instr{Op: tc.op, Imm: 6}, // skip "mov eax,1; hlt"
				isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
				isa.Instr{Op: isa.HLT},
				isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 2},
				isa.Instr{Op: isa.HLT},
			))
			if st := c.Run(100); st != Halted {
				t.Fatalf("state %v, fault %v", st, c.Fault())
			}
			want := uint32(1)
			if tc.taken {
				want = 2
			}
			if c.Reg[isa.EAX] != want {
				t.Fatalf("eax=%d want %d", c.Reg[isa.EAX], want)
			}
		})
	}
}

func TestDivideFault(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 10},
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 0},
		isa.Instr{Op: isa.IDIV, Rd: isa.EAX, Rs: isa.EBX},
	))
	if st := c.Run(100); st != Faulted {
		t.Fatalf("state %v", st)
	}
	if c.Fault().Kind != FaultDivide {
		t.Fatalf("fault %v", c.Fault())
	}
}

func TestNullDereferenceFaults(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0},
		isa.Instr{Op: isa.LOADW, Rd: isa.EBX, Rs: isa.EAX, Imm: 0},
	))
	if st := c.Run(100); st != Faulted {
		t.Fatalf("state %v", st)
	}
	f := c.Fault()
	if f.Kind != FaultMemory {
		t.Fatalf("fault %v", f)
	}
	var mf *mem.Fault
	if !errors.As(f.Err, &mf) || mf.Kind != mem.FaultUnmapped {
		t.Fatalf("wrapped fault %v", f.Err)
	}
}

// TestDEPBlocksStackExecution is the CPU-level DEP check: jumping to bytes
// on a writable page faults at fetch.
func TestDEPBlocksStackExecution(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: stackBase + 0x100},
		isa.Instr{Op: isa.JMPR, Rd: isa.EAX},
	))
	// Plant a valid instruction on the stack — it must still not run.
	c.Mem.PokeWord(stackBase+0x100, 0x90909090)
	if st := c.Run(100); st != Faulted {
		t.Fatalf("state %v", st)
	}
	f := c.Fault()
	var mf *mem.Fault
	if !errors.As(f.Err, &mf) || mf.Access != mem.X {
		t.Fatalf("want X protection fault, got %v", f)
	}
}

func TestFailFastInt29(t *testing.T) {
	c := newMachine(t, build(isa.Instr{Op: isa.INT, Imm: 0x29}))
	if st := c.Run(10); st != Faulted || c.Fault().Kind != FaultFailFast {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
}

func TestTrapInstruction(t *testing.T) {
	c := newMachine(t, []byte{0xCC})
	if st := c.Run(10); st != Faulted || c.Fault().Kind != FaultTrap {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
}

func TestIntWithoutHandlerFaults(t *testing.T) {
	c := newMachine(t, build(isa.Instr{Op: isa.INT, Imm: 0x80}))
	if st := c.Run(10); st != Faulted || c.Fault().Kind != FaultNoHandler {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
}

type exitHandler struct{ code int32 }

func (h *exitHandler) Trap(c *CPU, vector uint8) error {
	if vector != 0x80 {
		return fmt.Errorf("unexpected vector 0x%x", vector)
	}
	c.Exit(h.code)
	return nil
}

func TestTrapHandlerExit(t *testing.T) {
	c := newMachine(t, build(isa.Instr{Op: isa.INT, Imm: 0x80}))
	c.Handler = &exitHandler{code: 42}
	if st := c.Run(10); st != Exited {
		t.Fatalf("state %v", st)
	}
	if c.ExitCode() != 42 {
		t.Fatalf("exit code %d", c.ExitCode())
	}
}

func TestStepLimit(t *testing.T) {
	// jmp -5: infinite loop.
	neg := int32(-5)
	c := newMachine(t, build(isa.Instr{Op: isa.JMP, Imm: uint32(neg)}))
	if st := c.Run(1000); st != StepLimit {
		t.Fatalf("state %v", st)
	}
	if c.Steps != 1000 {
		t.Fatalf("steps %d", c.Steps)
	}
}

func TestBreakpointPauseAndResume(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1}, // +0
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 2}, // +5
		isa.Instr{Op: isa.HLT},                       // +10
	))
	c.SetBreak(textBase+5, true)
	if st := c.Run(100); st != Paused {
		t.Fatalf("state %v", st)
	}
	if c.Reg[isa.EAX] != 1 || c.Reg[isa.EBX] != 0 {
		t.Fatalf("paused at wrong point: eax=%d ebx=%d", c.Reg[isa.EAX], c.Reg[isa.EBX])
	}
	c.Resume()
	if st := c.Run(100); st != Halted {
		t.Fatalf("state after resume %v", st)
	}
	if c.Reg[isa.EBX] != 2 {
		t.Fatalf("resume skipped instruction")
	}
}

type denyPolicy struct {
	denyWriteAt uint32
	denyExecTo  uint32
}

func (p *denyPolicy) CheckRead(ip, addr uint32, size int) error { return nil }
func (p *denyPolicy) CheckWrite(ip, addr uint32, size int) error {
	if addr == p.denyWriteAt {
		return fmt.Errorf("write to 0x%x denied", addr)
	}
	return nil
}
func (p *denyPolicy) CheckExec(from, to uint32) error {
	if to == p.denyExecTo {
		return fmt.Errorf("exec at 0x%x denied", to)
	}
	return nil
}

func TestPolicyWriteDenied(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: stackBase + 0x40},
		isa.Instr{Op: isa.STOREW, Rd: isa.EAX, Rs: isa.EBX, Imm: 0},
	))
	c.Policy = &denyPolicy{denyWriteAt: stackBase + 0x40}
	if st := c.Run(10); st != Faulted || c.Fault().Kind != FaultPolicy {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
}

func TestPolicySeesSequentialFlow(t *testing.T) {
	// The policy must see plain fall-through IP movement, or a module
	// could be entered by jumping just before it.
	c := newMachine(t, build(
		isa.Instr{Op: isa.NOP}, // textBase+0
		isa.Instr{Op: isa.NOP}, // textBase+1 — denied
		isa.Instr{Op: isa.HLT},
	))
	c.Policy = &denyPolicy{denyExecTo: textBase + 1}
	if st := c.Run(10); st != Faulted || c.Fault().Kind != FaultPolicy {
		t.Fatalf("state %v fault %v", st, c.Fault())
	}
	if c.Fault().IP != textBase {
		t.Fatalf("fault attributed to 0x%x", c.Fault().IP)
	}
}

func TestRunNotRestartableAfterExit(t *testing.T) {
	c := newMachine(t, build(isa.Instr{Op: isa.HLT}))
	c.Run(10)
	if c.Step() {
		t.Fatal("Step after halt returned true")
	}
	if st := c.Run(10); st != Halted {
		t.Fatalf("state changed to %v", st)
	}
}

func TestUnsignedAndSignedFlagSeparation(t *testing.T) {
	// cmp 0x80000000, 1: signed: negative < 1 (JL taken);
	// unsigned: huge > 1 (JA taken).
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x80000000},
		isa.Instr{Op: isa.CMPI, Rd: isa.EAX, Imm: 1},
	))
	c.Run(2)
	if !(c.F.S != c.F.O) {
		t.Error("JL condition (signed less) should hold")
	}
	if c.F.C || c.F.Z {
		t.Error("JA condition (unsigned greater) should hold")
	}
}
