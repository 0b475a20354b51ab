package cpu

import (
	"bytes"
	"fmt"
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

// fuzzBudget is the step budget of every FuzzEngineDifferential run.
const fuzzBudget = 2048

// fuzzCode is where a generated loop is loaded: the third of the four
// RWX text pages. A store base walking up from textBase reaches the
// running code only after the loop has run hot, and leaves it again.
const fuzzCode = textBase + 0x2000

// fuzzWork lists the registers generated instructions may write: EBP
// counts the loop's iterations, EDI holds fuzzCode, which loads, stores
// and indirect targets address from, and ESP is the stack.
var fuzzWork = [...]isa.Reg{isa.EAX, isa.ECX, isa.EDX, isa.EBX, isa.ESI}

var (
	fuzzALURR = [...]isa.Op{isa.MOV, isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR, isa.CMP,
		isa.TEST, isa.IMUL, isa.IDIV, isa.IMOD, isa.SHL, isa.SHR, isa.SAR}
	fuzzALURI = [...]isa.Op{isa.ADDI, isa.SUBI, isa.ANDI, isa.ORI, isa.XORI, isa.CMPI}
	fuzzJumps = [...]isa.Op{isa.JMP, isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE,
		isa.JB, isa.JA, isa.JAE, isa.JBE}
	// fuzzBases are the base registers of loads and stores: the code, the
	// stack, and the work registers, of which ECX starts in the text
	// pages below the code and EDX in the stack (fuzzMachine).
	fuzzBases = [...]isa.Reg{isa.EDI, isa.ESP, isa.EAX, isa.ECX, isa.EDX, isa.EBX, isa.ESI}
)

// fuzzProg is a generated loop and the machine state it starts from.
type fuzzProg struct {
	code  []byte
	iters uint32 // initial EBP, the loop counter
	esp   uint32
	mid   uint64 // steps run before the second pass's restore
	// guard is the byte range of the instruction the guarded policies
	// (fuzzGuard) protect.
	guard fuzzGuard
}

// genLoop turns fuzz input into a loop of valid SM32 instructions. Three
// header bytes pick the iteration count, the initial ESP (within 1 KiB
// above a stack page boundary, so pushes cross pages) and the mid-run
// restore point. Each further three bytes k, a, b become one body
// instruction: k%12 picks the kind and k/12 the variant, a and b the
// operands. Loads and stores may address the code itself; every direct,
// call and indirect target is an instruction boundary of the loop. The
// body is closed by
//
//	subi ebp, 1
//	jnz  body
//	hlt
//
// The input's last byte, an operand too, also picks the guarded
// instruction: its index modulo the loop's length, closing three
// included.
func genLoop(data []byte) fuzzProg {
	var last byte
	if len(data) > 0 {
		last = data[len(data)-1]
	}
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	p := fuzzProg{
		iters: 1 + uint32(next()%64),
		esp:   stackTop - mem.PageSize + 4*uint32(next()),
		mid:   1 + uint64(next())*fuzzBudget/256,
	}
	var body []isa.Instr
	var target []int // per body instruction: the index it branches to or addresses, or -1
	add := func(in isa.Instr, to int) {
		body = append(body, in)
		target = append(target, to)
	}
	for len(data) > 0 && len(body) < 48 {
		k, a, b := next(), next(), next()
		v := int(k / 12)
		rd := fuzzWork[int(a)%len(fuzzWork)]
		switch k % 12 {
		case 0:
			add(isa.Instr{Op: fuzzALURR[v%len(fuzzALURR)], Rd: rd, Rs: isa.Reg(b % 8)}, -1)
		case 1:
			imm := uint32(b) << (4 * (v / len(fuzzALURI) % 4))
			add(isa.Instr{Op: fuzzALURI[v%len(fuzzALURI)], Rd: rd, Imm: imm}, -1)
		case 2:
			imm := uint32(b)
			if v%2 == 1 {
				imm += fuzzCode // a code pointer
			}
			add(isa.Instr{Op: isa.MOVI, Rd: rd, Imm: imm}, -1)
		case 3:
			add(isa.Instr{Op: [...]isa.Op{isa.NEG, isa.NOT}[v%2], Rd: rd}, -1)
		case 4:
			if v%2 == 0 {
				add(isa.Instr{Op: isa.PUSH, Rd: isa.Reg(a % 8)}, -1)
			} else {
				add(isa.Instr{Op: isa.PUSHI, Imm: uint32(b)}, -1)
			}
		case 5:
			add(isa.Instr{Op: isa.POP, Rd: rd}, -1)
		case 6:
			op := [...]isa.Op{isa.STOREW, isa.STOREB}[v%2]
			base := fuzzBases[v/2%len(fuzzBases)]
			add(isa.Instr{Op: op, Rd: base, Rs: isa.Reg(a % 8), Imm: uint32(b)}, -1)
		case 7:
			op := [...]isa.Op{isa.LOADW, isa.LOADB}[v%2]
			base := fuzzBases[v/2%len(fuzzBases)]
			add(isa.Instr{Op: op, Rd: rd, Rs: base, Imm: uint32(b)}, -1)
		case 8:
			add(isa.Instr{Op: fuzzJumps[v%len(fuzzJumps)]}, int(a))
		case 9:
			add(isa.Instr{Op: isa.CALL}, int(a))
		case 10:
			r := fuzzWork[int(b)%len(fuzzWork)]
			add(isa.Instr{Op: isa.LEA, Rd: r, Rs: isa.EDI}, int(a))
			add(isa.Instr{Op: [...]isa.Op{isa.JMPR, isa.CALLR}[v%2], Rd: r}, -1)
		default:
			switch v % 4 {
			case 0:
				add(isa.Instr{Op: isa.RET}, -1)
			case 1:
				add(isa.Instr{Op: isa.INT, Imm: 0x80}, -1)
			default:
				add(isa.Instr{Op: isa.NOP}, -1)
			}
		}
	}
	add(isa.Instr{Op: isa.SUBI, Rd: isa.EBP, Imm: 1}, -1)
	add(isa.Instr{Op: isa.JNZ}, 0)
	add(isa.Instr{Op: isa.HLT}, -1)

	off := make([]uint32, len(body)+1)
	for i, in := range body {
		off[i+1] = off[i] + uint32(isa.EncodedSize(in.Op))
	}
	for i := range body {
		if target[i] < 0 {
			continue
		}
		to := off[target[i]%len(body)]
		if body[i].Op == isa.LEA {
			body[i].Imm = to // EDI holds fuzzCode
		} else {
			body[i].Imm = to - off[i+1]
		}
	}
	for _, in := range body {
		p.code = isa.MustEncode(p.code, in)
	}
	g := int(last) % len(body)
	p.guard = fuzzGuard{lo: fuzzCode + off[g], hi: fuzzCode + off[g+1]}
	return p
}

// fuzzGuard is a policy over one range of code bytes [lo, hi). CheckExec
// denies every transfer that enters the range from below, as each
// sequential transfer into it does, and CheckWrite every store that
// overlaps it. It has no block compiler, so the block tiers run every
// block they build checked.
type fuzzGuard struct{ lo, hi uint32 }

func (g *fuzzGuard) CheckRead(ip, addr uint32, size int) error { return nil }

func (g *fuzzGuard) CheckWrite(ip, addr uint32, size int) error {
	if addr < g.hi && addr+uint32(size) > g.lo {
		return fmt.Errorf("store to guarded %#x", addr)
	}
	return nil
}

func (g *fuzzGuard) CheckExec(from, to uint32) error {
	if from < g.lo && to >= g.lo && to < g.hi {
		return fmt.Errorf("entry into guarded %#x", to)
	}
	return nil
}

// fuzzGuardCompiler is fuzzGuard with a block compiler that refuses every
// span touching the range, fall-through included, and proves the
// sequential transfers of every other span. Stores may reach the range
// from anywhere, so it proves no span data-free.
type fuzzGuardCompiler struct{ fuzzGuard }

func (g *fuzzGuardCompiler) CompileBlockCheck(start, end uint32) (dataFree, ok bool) {
	return false, end < g.lo || start >= g.hi
}

// fuzzMachine loads p at fuzzCode on an RWX text segment, with INT
// serviced by a handler that does nothing. ECX starts at the first text
// page and EDX in the stack, so either can serve as a store base.
func fuzzMachine(t *testing.T, p fuzzProg) *CPU {
	t.Helper()
	c := newRWXMachine(t, nil)
	if err := c.Mem.LoadRaw(fuzzCode, p.code); err != nil {
		t.Fatal(err)
	}
	c.IP = fuzzCode
	c.Handler = nopHandler{}
	c.Reg = [isa.NumRegs]uint32{0x11, textBase, stackTop - 0x800, 4, p.esp, p.iters, 5, fuzzCode}
	return c
}

// fuzzBytes returns the text and stack bytes of c's address space.
func fuzzBytes(t *testing.T, c *CPU) []byte {
	t.Helper()
	text, ok1 := c.Mem.PeekRaw(textBase, 0x4000)
	stack, ok2 := c.Mem.PeekRaw(stackBase, 0x10000)
	if !ok1 || !ok2 {
		t.Fatal("text or stack segment unmapped")
	}
	return append(text, stack...)
}

// fuzzRun runs p for fuzzBudget steps on the current tier under pol and
// a memory checkpoint, and returns the outcome and the text and stack
// bytes the run left. With mid > 0 it first runs mid steps and rolls
// memory and architectural state back to the start, so the counted run
// meets code caches filled by a run whose writes were undone. After the
// run, restoring the checkpoint must give back the pre-run bytes.
func fuzzRun(t *testing.T, p fuzzProg, pol Policy, mid uint64) (outcome, []byte) {
	t.Helper()
	c := fuzzMachine(t, p)
	c.Policy = pol
	start := c.SaveArch()
	pre := fuzzBytes(t, c)
	cp := c.Mem.Checkpoint()
	if mid > 0 {
		c.Run(mid)
		if err := c.Mem.Restore(cp); err != nil {
			t.Fatal(err)
		}
		c.RestoreArch(start)
	}
	c.Coverage = &Coverage{}
	o := outcomeOf(c, c.Run(fuzzBudget))
	post := fuzzBytes(t, c)
	if err := c.Mem.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fuzzBytes(t, c), pre) {
		t.Fatal("restoring the checkpoint did not give back the pre-run bytes")
	}
	return o, post
}

// Seeds of FuzzEngineDifferential, in genLoop's input format; each runs
// 63 iterations.
var (
	// A store-free jump chain: four (addi r, 1; jmp next) blocks.
	fuzzSeedJumpChain = []byte{62, 128, 100,
		1, 4, 1, 8, 2, 0, 1, 1, 1, 8, 4, 0, 1, 2, 1, 8, 6, 0, 1, 3, 1, 8, 8, 0}
	// A PUSH/CALL loop whose stack grows across a page boundary:
	// push eax; push 7; call next; addi eax, 1.
	fuzzSeedPushCall = []byte{62, 20, 100,
		4, 0, 0, 16, 0, 7, 9, 3, 0, 1, 0, 1}
	// Stores into the running block: addi ecx, 0x100; addi ebx, 1;
	// storeb [ecx+8], eax; storeb [ecx+26], eax; addi esi, 1; jmp tail.
	// The stores walk up the text pages below the code while a trace
	// forms. In iteration 32 they rewrite the immediates of both addi
	// ebx, already run, and addi esi, still to run. From iteration 48
	// they write the page above, and the trace re-forms over the
	// rewritten code.
	fuzzSeedSMC = []byte{62, 128, 100,
		73, 1, 16, 1, 3, 1, 90, 0, 8, 90, 0, 26, 1, 4, 1, 8, 6, 0}
	// A sequential transfer into the guard in the middle of a block:
	// four calls of f; jmp s; f: addi eax, 1; ret; s: five nops; addi
	// ebx, 1 (the guard, picked by the last byte); nop. The fourth call
	// is f's fourth visit, which allocates the block table. The mid-run
	// restore comes after the fourth nop of s, so the counted run
	// enters s's block on its second visit: built, refused by the
	// guard's compiler, and faulting as it runs checked.
	fuzzSeedGuard = []byte{62, 128, 2,
		9, 5, 0, 9, 5, 0, 9, 5, 0, 9, 5, 0, 8, 7, 0, 1, 0, 1, 11, 0, 0,
		35, 0, 0, 35, 0, 0, 35, 0, 0, 35, 0, 0, 35, 0, 0, 1, 3, 1, 35, 0, 12}
	// A store into the guard from a block outside it: addi ecx, 0x100;
	// storeb [ecx+18], eax; jmp tail; nop; nop (the guard, at offset 18,
	// picked by the last byte). The jmp skips both nops, so the guard's
	// compiler proves every block of the loop exec-safe, and none
	// data-free. The store walks up the text pages below the code, and in
	// iteration 32, long after its block formed, it reaches the guard.
	fuzzSeedGuardStore = []byte{62, 128, 10,
		73, 1, 16, 90, 0, 18, 8, 5, 0, 35, 0, 0, 35, 0, 4}
)

// FuzzEngineDifferential runs generated loops (genLoop) on the step,
// block and trace tiers, each once from a cold machine and once after a
// mid-run restore, and requires every run to leave the same outcome and
// the same text and stack bytes as the cold stepping run. It does so
// three times: with no policy, and under the loop's guard (fuzzGuard)
// without and with a block compiler.
func FuzzEngineDifferential(f *testing.F) {
	f.Add(fuzzSeedJumpChain)
	f.Add(fuzzSeedPushCall)
	f.Add(fuzzSeedSMC)
	f.Add(fuzzSeedGuard)
	f.Add(fuzzSeedGuardStore)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := genLoop(data)
		for _, pol := range []struct {
			name string
			pol  Policy
		}{
			{"no policy", nil},
			{"guard without block compiler", &p.guard},
			{"guard with block compiler", &fuzzGuardCompiler{p.guard}},
		} {
			var want outcome
			var wantMem []byte
			for _, tier := range []struct {
				name         string
				block, trace bool
			}{{"step", false, false}, {"block", true, false}, {"trace", true, true}} {
				for _, mid := range []uint64{0, p.mid} {
					withTiers(tier.block, tier.trace, func() {
						got, gotMem := fuzzRun(t, p, pol.pol, mid)
						if want.cov == nil {
							want, wantMem = got, gotMem
							return
						}
						if d := want.diff(got); d != "" {
							t.Fatalf("%s, %s, mid-run restore at %d: %s", pol.name, tier.name, mid, d)
						}
						if !bytes.Equal(gotMem, wantMem) {
							t.Fatalf("%s, %s, mid-run restore at %d: text or stack bytes differ from the stepping run", pol.name, tier.name, mid)
						}
					})
				}
			}
		}
	})
}

// TestFuzzSeedShapes pins that each FuzzEngineDifferential seed reaches
// the path it is named for on the default (trace) tier.
func TestFuzzSeedShapes(t *testing.T) {
	run := func(p fuzzProg) *CPU {
		c := fuzzMachine(t, p)
		c.TraceStats = &TraceStats{}
		if st := c.Run(fuzzBudget); st != Halted && st != StepLimit {
			t.Fatalf("state %v, fault %v", st, c.Fault())
		}
		return c
	}
	if c := run(genLoop(fuzzSeedJumpChain)); c.TraceStats.Formed == 0 || c.TraceStats.LoopBacks == 0 {
		t.Errorf("jump chain: no looping trace formed: %+v", *c.TraceStats)
	}
	p := genLoop(fuzzSeedPushCall)
	if c := run(p); c.TraceStats.Formed == 0 || c.Reg[isa.ESP]/mem.PageSize == p.esp/mem.PageSize {
		t.Errorf("push/call loop: formed %d traces, esp %#x from %#x", c.TraceStats.Formed, c.Reg[isa.ESP], p.esp)
	}
	// The rewrite lands after iteration 32's addi ebx and before its
	// addi esi.
	if c := run(genLoop(fuzzSeedSMC)); c.TraceStats.Formed < 2 || c.Reg[isa.EBX] != 4+32+31*0x11 || c.Reg[isa.ESI] != 5+31+32*0x11 {
		t.Errorf("stores into the running block: formed %d traces, ebx %#x, esi %#x",
			c.TraceStats.Formed, c.Reg[isa.EBX], c.Reg[isa.ESI])
	}
}

// TestFuzzGuardSeedShape pins that fuzzSeedGuard reaches the path it is
// named for on the default (trace) tier: under the guard's block
// compiler, the run after the mid-run restore faults on the sequential
// transfer into the guard, from the instruction before it, inside the one
// block it ran checked.
func TestFuzzGuardSeedShape(t *testing.T) {
	p := genLoop(fuzzSeedGuard)
	c := fuzzMachine(t, p)
	c.Policy = &fuzzGuardCompiler{p.guard}
	start := c.SaveArch()
	cp := c.Mem.Checkpoint()
	if st := c.Run(p.mid); st != StepLimit {
		t.Fatalf("mid-run: state %v, fault %v", st, c.Fault())
	}
	if err := c.Mem.Restore(cp); err != nil {
		t.Fatal(err)
	}
	c.RestoreArch(start)
	bs := &BlockStats{}
	c.BlockStats = bs
	if st := c.Run(fuzzBudget); st != Faulted {
		t.Fatalf("state %v, want faulted", st)
	}
	if f := c.Fault(); f.Kind != FaultPolicy || f.IP != p.guard.lo-1 {
		t.Fatalf("fault %v, want a policy fault at %#x", f, p.guard.lo-1)
	}
	if bs.Checked != 1 {
		t.Fatalf("%d checked dispatches, want the one that faulted: %+v", bs.Checked, *bs)
	}
}

// TestFuzzGuardStoreSeedShape pins that fuzzSeedGuardStore reaches the
// path it is named for on the block tier: under the guard's block
// compiler, iteration 32's store into the guard faults inside one
// dispatch of a block the compiler proved exec-safe, so only the data
// check the block still runs can stop it.
func TestFuzzGuardStoreSeedShape(t *testing.T) {
	p := genLoop(fuzzSeedGuardStore)
	// run runs p from the start for budget steps on the block tier and
	// returns the machine, its final state and its block counters.
	run := func(budget uint64) (*CPU, State, BlockStats) {
		c := fuzzMachine(t, p)
		c.Policy = &fuzzGuardCompiler{p.guard}
		bs := &BlockStats{}
		c.BlockStats = bs
		var st State
		withTiers(true, false, func() { st = c.Run(budget) })
		return c, st, *bs
	}
	// Each iteration retires addi, storeb, jmp, subi and jnz.
	before, st, bsBefore := run(31 * 5)
	if st != StepLimit || before.IP != fuzzCode || before.Reg[isa.ECX] != fuzzCode-0x100 {
		t.Fatalf("after 31 iterations: state %v, ip %#x, ecx %#x", st, before.IP, before.Reg[isa.ECX])
	}
	if bsBefore.Builds == 0 {
		t.Fatal("no block formed in 31 iterations")
	}
	c, st, bs := run(fuzzBudget)
	if st != Faulted {
		t.Fatalf("state %v, want faulted", st)
	}
	if f := c.Fault(); f.Kind != FaultPolicy || f.IP != fuzzCode+6 || c.Reg[isa.ECX]+18 != p.guard.lo {
		t.Fatalf("fault %v with ecx %#x, want a policy fault of the store at %#x into %#x", f, c.Reg[isa.ECX], fuzzCode+6, p.guard.lo)
	}
	if bs.Dispatches != bsBefore.Dispatches+1 || bs.StepFalls != bsBefore.StepFalls || bs.Checked != bsBefore.Checked {
		t.Fatalf("iteration 32 was not one exec-safe dispatch: %+v, then %+v", bsBefore, bs)
	}
}
