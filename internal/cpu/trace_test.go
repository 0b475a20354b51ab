package cpu

import (
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

// chainCode builds an nblocks-long chain of (addi reg, 1; jmp next)
// blocks whose last block closes a counted loop:
//
//	b0:   addi esi, 1
//	      jmp b1
//	...
//	bN-1: cmpi esi, iters
//	      jnz b0
//	      hlt
//
// Every interior block ends in an unconditional direct jump: a chain of
// two-instruction blocks, the dispatch-bound shape the recorder chains
// into one looping trace.
func chainCode(nblocks int, iters uint32) []byte {
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	regs := []isa.Reg{isa.ESI, isa.EDI, isa.EBX, isa.ECX}
	for i := 0; i < nblocks-1; i++ {
		add(isa.Instr{Op: isa.ADDI, Rd: regs[i%len(regs)], Imm: 1}) // 6 bytes
		add(isa.Instr{Op: isa.JMP, Imm: 0})                         // 5 bytes, falls through
	}
	add(isa.Instr{Op: isa.CMPI, Rd: isa.ESI, Imm: iters}) // 6 bytes
	// jnz back to b0: target 0, next = here+5
	here := uint32(len(code))
	add(isa.Instr{Op: isa.JNZ, Imm: ^uint32(here + 5 - 1)}) // next + imm == 0
	add(isa.Instr{Op: isa.HLT})
	return code
}

func runChain(t *testing.T, nblocks int, iters uint32) (*CPU, *TraceStats) {
	t.Helper()
	c := newMachine(t, chainCode(nblocks, iters))
	st := &TraceStats{}
	c.TraceStats = st
	if got := c.Run(1 << 30); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != iters {
		t.Fatalf("esi = %d, want %d", c.Reg[isa.ESI], iters)
	}
	return c, st
}

// TestTraceFormation: a hot block chain forms a trace, dispatches it,
// and loops inside it without re-probing the cache each pass.
func TestTraceFormation(t *testing.T) {
	_, st := runChain(t, 4, 500)
	if st.Formed == 0 {
		t.Fatal("no trace formed over a 500-iteration hot chain")
	}
	if st.Dispatches == 0 {
		t.Fatal("trace formed but never dispatched")
	}
	if st.LoopBacks == 0 {
		t.Fatal("loop trace never looped internally")
	}
	if st.LenHist[4] == 0 {
		t.Fatalf("expected a 4-member trace in the histogram: %v", st.LenHist)
	}
	if got := st.AvgLen(); got < 2 || got > MaxTraceBlocks {
		t.Fatalf("AvgLen = %v, want within [2, %d]", got, MaxTraceBlocks)
	}
}

// TestTraceSideExit: a conditional branch recorded one way eventually
// goes the other way; the branch-direction guard catches it mid-chain
// and the machine side-exits with fully consistent state.
//
// The recorder arms at the first block whose dispatch count crosses
// traceHot, so a loop trace is a *rotation* of the cycle. The loop's
// exit branch ends the middle one of its three blocks:
//
//	b0:  addi esi, 1
//	     jmp b1
//	b1:  cmpi esi, 400
//	     jz out
//	b2:  addi edi, 1
//	     jmp b0
//	out: hlt
//
// b0 is built first, at the fourth visit of its pc, so the trace is
// entered at b0 and the exit branch sits mid-trace, where its eventual
// taken path must trip b2's entry guard.
func TestTraceSideExit(t *testing.T) {
	const iters = 400
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.ADDI, Rd: isa.ESI, Imm: 1})     // 6 bytes
	add(isa.Instr{Op: isa.JMP, Imm: 0})                   // 5 bytes, falls through
	add(isa.Instr{Op: isa.CMPI, Rd: isa.ESI, Imm: iters}) // 6 bytes
	add(isa.Instr{Op: isa.JZ, Imm: 11})                   // 5 bytes, over b2 to out
	add(isa.Instr{Op: isa.ADDI, Rd: isa.EDI, Imm: 1})     // 6 bytes
	add(isa.Instr{Op: isa.JMP, Imm: ^uint32(32)})         // 5 bytes, back 33 to b0
	add(isa.Instr{Op: isa.HLT})
	c := newMachine(t, code)
	st := &TraceStats{}
	c.TraceStats = st
	if got := c.Run(1 << 30); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != iters || c.Reg[isa.EDI] != iters-1 {
		t.Fatalf("esi/edi = %d/%d, want %d/%d", c.Reg[isa.ESI], c.Reg[isa.EDI], iters, iters-1)
	}
	if st.Formed == 0 || st.SideExits == 0 {
		t.Fatalf("want a formed trace and a mid-chain side exit, got %+v", *st)
	}
	// A loop trace dispatches once and loops internally, so its single
	// dispatch may well end in the side exit: rate in (0, 1].
	if r := st.SideExitRate(); r <= 0 || r > 1 {
		t.Fatalf("SideExitRate = %v, want in (0, 1]", r)
	}
}

// TestTraceSMCInvalidation pins invalidation in both directions: a write
// into a member's bytes kills the trace through the stamp guard (the
// fresh bytes must execute — StaleExits), and the rewritten chain
// re-heats into a fresh trace over the new content (Formed grows).
func TestTraceSMCInvalidation(t *testing.T) {
	code := chainCode(3, 200)
	c := newRWXMachine(t, code)
	st := &TraceStats{}
	c.TraceStats = st
	// Phase 1: clean run forms and executes a trace over the chain.
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 200 || c.Reg[isa.EDI] != 200 {
		t.Fatalf("phase 1 esi/edi = %d/%d", c.Reg[isa.ESI], c.Reg[isa.EDI])
	}
	if st.Formed == 0 {
		t.Fatal("no trace formed in phase 1")
	}
	formed := st.Formed
	// Patch b0's addi immediate from 1 to 5 and rerun. The page write
	// stamp moved, so the cached trace must die at its stamp guard and
	// the patched bytes must execute: esi steps by 5, so the loop now
	// closes in 40 iterations — edi, incremented once per pass, is the
	// witness that the stale chain did not run.
	if err := c.Mem.Write8(textBase+2, 5); err != nil {
		t.Fatal(err)
	}
	c.RestoreArch(ArchState{})
	c.IP = textBase
	c.Reg[isa.ESP] = stackTop
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("phase 2 state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 200 || c.Reg[isa.EDI] != 40 {
		t.Fatalf("phase 2 esi/edi = %d/%d, want 200/40 (stale trace executed?)",
			c.Reg[isa.ESI], c.Reg[isa.EDI])
	}
	if st.StaleExits == 0 {
		t.Fatal("patched member never tripped the stamp guard")
	}
	if st.Formed <= formed {
		t.Fatalf("trace did not re-form over the patched bytes: %d -> %d", formed, st.Formed)
	}
}

// TestTraceSMCDifferential: a loop that patches its own immediate every
// pass stays bit-identical across all three tiers — the conservative
// answer (blocks and traces never staying hot enough to matter) must
// still execute the fresh bytes every single iteration.
func TestTraceSMCDifferential(t *testing.T) {
	// p0: movi ecx, <addr of p1's addi imm>  ; 0, 5 bytes
	//     storeb [ecx], eax                  ; 5, 6 bytes (patches p1)
	//     jmp p1                             ; 11, 5 bytes
	// p1: addi esi, <imm>                    ; 16, 6 bytes (imm at 18)
	//     cmpi edi, 0 / addi edi, 1...
	// loop control below.
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: textBase + 18}) // 0
	add(isa.Instr{Op: isa.STOREB, Rd: isa.ECX, Rs: isa.EAX})      // 5
	add(isa.Instr{Op: isa.JMP, Imm: 0})                           // 11, falls through
	add(isa.Instr{Op: isa.ADDI, Rd: isa.ESI, Imm: 1})             // 16, imm byte at 18
	add(isa.Instr{Op: isa.ADDI, Rd: isa.EDI, Imm: 1})             // 22
	add(isa.Instr{Op: isa.CMPI, Rd: isa.EDI, Imm: 300})           // 28
	here := uint32(len(code))
	add(isa.Instr{Op: isa.JNZ, Imm: ^uint32(here + 5 - 1)}) // back to 0
	add(isa.Instr{Op: isa.HLT})

	mk := func(t *testing.T) *CPU {
		m := mem.New()
		if err := m.Map(textBase, 0x1000, mem.RWX); err != nil {
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
		// eax cycles the patched immediate between 1 and 2 per pass.
		c.Reg[isa.EAX] = 2
		return c
	}
	// Bit-identity across all three tiers while the loop self-modifies
	// every single pass.
	trc, _ := runBothEngines(t, mk, 1<<20)
	if trc.Reg[isa.ESI] == 300 {
		t.Fatal("patched immediate never took effect")
	}
}

// TestTraceRestoreInvalidation: a checkpoint rollback that rewrites a
// code page must invalidate traces built over the mutated bytes — and
// the chain re-forms over the restored content.
func TestTraceRestoreInvalidation(t *testing.T) {
	code := chainCode(3, 200)
	m := mem.New()
	if err := m.Map(textBase, 0x1000, mem.RWX); err != nil {
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
	st := &TraceStats{}
	c.TraceStats = st

	cp := m.Checkpoint()
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 200 || st.Formed == 0 {
		t.Fatalf("first run: esi=%d formed=%d", c.Reg[isa.ESI], st.Formed)
	}
	formed := st.Formed

	// Mutate the first block's immediate (kills the live trace via the
	// write stamp), then roll back: the restore rewrites the page, so
	// traces over the mutated bytes must not survive either.
	if err := m.Write8(textBase+2, 5); err != nil { // addi esi, 5
		t.Fatal(err)
	}
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	c.RestoreArch(ArchState{})
	c.IP = textBase
	c.Reg[isa.ESP] = stackTop
	c.Resume()
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state after restore %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 200 {
		t.Fatalf("esi = %d after rollback, want 200 (original +1 immediate)", c.Reg[isa.ESI])
	}
	if st.Formed <= formed {
		t.Fatalf("trace did not re-form after restore: %d -> %d", formed, st.Formed)
	}
}

// allowAllCompiler is a policy that allows everything and advertises
// both span summaries — the cheapest BlockCheckCompiler.
type allowAllCompiler struct{}

func (allowAllCompiler) CheckRead(ip, addr uint32, size int) error  { return nil }
func (allowAllCompiler) CheckWrite(ip, addr uint32, size int) error { return nil }
func (allowAllCompiler) CheckExec(from, to uint32) error            { return nil }
func (allowAllCompiler) CompileBlockCheck(start, end uint32) (bool, bool) {
	return true, true
}

// TestTracePolicyToggleInvalidation: rebinding the policy moves the
// policy epoch; cached traces must be dropped at the next probe and
// re-form under the new regime.
func TestTracePolicyToggleInvalidation(t *testing.T) {
	code := chainCode(3, 400)
	c := newMachine(t, code)
	st := &TraceStats{}
	c.TraceStats = st
	rerun := func(phase string) {
		t.Helper()
		c.RestoreArch(ArchState{})
		c.IP = textBase
		c.Reg[isa.ESP] = stackTop
		if got := c.Run(1 << 20); got != Halted {
			t.Fatalf("%s: state %v, fault %v", phase, got, c.Fault())
		}
		if c.Reg[isa.ESI] != 400 {
			t.Fatalf("%s: esi = %d, want 400", phase, c.Reg[isa.ESI])
		}
	}
	// Phase 1: form and run a trace with no policy installed.
	rerun("no policy")
	if st.Formed == 0 {
		t.Fatal("no trace formed in phase 1")
	}
	formed := st.Formed
	// Phase 2: install a compiler policy. The epoch moves; the cached
	// trace is dropped at its next probe and rebuilt with policy span
	// summaries under the new regime.
	c.Policy = allowAllCompiler{}
	rerun("with policy")
	if st.Formed <= formed {
		t.Fatalf("trace did not re-form after policy rebind: %d -> %d", formed, st.Formed)
	}
	formed = st.Formed
	// Phase 3: remove the policy again — the rebind moves the epoch in
	// this direction too.
	c.Policy = nil
	rerun("policy removed")
	if st.Formed <= formed {
		t.Fatalf("trace did not re-form after policy removal: %d -> %d", formed, st.Formed)
	}
}

// TestTraceBudgetExact sweeps budgets across the hot chain and asserts
// StepLimit fires at exactly the same instruction in all three tiers —
// partial retirement through trace members and stepped code alike.
func TestTraceBudgetExact(t *testing.T) {
	code := chainCode(4, 30)
	for budget := uint64(0); budget <= 280; budget += 7 {
		runBothEngines(t, func(t *testing.T) *CPU {
			return newMachine(t, code)
		}, budget)
	}
	// And exactness of the count itself, deep inside trace execution.
	c := newMachine(t, code)
	if got := c.Run(123); got != StepLimit {
		t.Fatalf("state %v", got)
	}
	if c.Steps != 123 {
		t.Fatalf("steps = %d, want exactly 123", c.Steps)
	}
}

// TestTraceNonCompilerPolicyDemotion: under a policy without a block
// compiler every block the engine runs is checked, and the trace tier
// must not engage.
func TestTraceNonCompilerPolicyDemotion(t *testing.T) {
	c := newMachine(t, chainCode(3, 50))
	st := &TraceStats{}
	bs := &BlockStats{}
	c.TraceStats = st
	c.BlockStats = bs
	c.Policy = blockStores{} // no CompileBlockCheck
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if st.Formed != 0 || st.Dispatches != 0 {
		t.Fatalf("trace activity under a non-compiler policy: %+v", *st)
	}
	if bs.Checked == 0 || bs.Checked != bs.Dispatches {
		t.Fatalf("want every block dispatch checked: %+v", *bs)
	}
}

// nopHandler services every INT by doing nothing.
type nopHandler struct{}

func (nopHandler) Trap(c *CPU, vector uint8) error { return nil }

// TestTraceExcludesINT: blocks ending in INT never become trace members
// — the kernel may remap or rewrite anything under a trap. In a 2-block
// loop where one block ends in INT, every candidate chain seals below
// MinTraceBlocks, so nothing may ever form.
func TestTraceExcludesINT(t *testing.T) {
	// i0: addi esi, 1; int 0x80   (excluded terminator)
	// i1: cmpi esi, 300; jnz i0
	//     hlt
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.ADDI, Rd: isa.ESI, Imm: 1})
	add(isa.Instr{Op: isa.INT, Imm: 0x80})
	add(isa.Instr{Op: isa.CMPI, Rd: isa.ESI, Imm: 300})
	here := uint32(len(code))
	add(isa.Instr{Op: isa.JNZ, Imm: ^uint32(here + 5 - 1)})
	add(isa.Instr{Op: isa.HLT})
	c := newMachine(t, code)
	c.Handler = nopHandler{}
	st := &TraceStats{}
	c.TraceStats = st
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 300 {
		t.Fatalf("esi = %d, want 300", c.Reg[isa.ESI])
	}
	if st.Formed != 0 {
		t.Fatalf("a trace formed across an INT boundary: %+v", *st)
	}
	if st.Aborts == 0 {
		t.Fatal("recorder never armed and abandoned a chain at the INT block")
	}
}

// TestTraceSealsBeforeINT: the chain *up to* an INT block is still
// traceable — the recorder seals at the boundary instead of abandoning
// everything.
func TestTraceSealsBeforeINT(t *testing.T) {
	// i0: addi esi, 1; jmp i1
	// i1: addi edi, 1; jmp i2
	// i2: addi ebx, 1; int 0x80
	// i3: cmpi esi, 300; jnz i0; hlt
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.ADDI, Rd: isa.ESI, Imm: 1}) // i0
	add(isa.Instr{Op: isa.JMP, Imm: 0})
	add(isa.Instr{Op: isa.ADDI, Rd: isa.EDI, Imm: 1}) // i1
	add(isa.Instr{Op: isa.JMP, Imm: 0})
	add(isa.Instr{Op: isa.ADDI, Rd: isa.EBX, Imm: 1}) // i2
	add(isa.Instr{Op: isa.INT, Imm: 0x80})
	add(isa.Instr{Op: isa.CMPI, Rd: isa.ESI, Imm: 300}) // i3
	here := uint32(len(code))
	add(isa.Instr{Op: isa.JNZ, Imm: ^uint32(here + 5 - 1)})
	add(isa.Instr{Op: isa.HLT})
	c := newMachine(t, code)
	c.Handler = nopHandler{}
	st := &TraceStats{}
	c.TraceStats = st
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state %v, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 300 || c.Reg[isa.EBX] != 300 {
		t.Fatalf("esi/ebx = %d/%d, want 300/300", c.Reg[isa.ESI], c.Reg[isa.EBX])
	}
	if st.Formed == 0 || st.Dispatches == 0 {
		t.Fatalf("chain before the INT block never became a trace: %+v", *st)
	}
	// No member may end in INT, so no formed trace can span all four
	// blocks of the loop.
	if st.LenHist[4] != 0 {
		t.Fatalf("a 4-member trace would include the INT block: %v", st.LenHist)
	}
}

// TestTraceMemSwapDropsTraces: swapping the Memory drops the trace cache
// along with the other caches.
func TestTraceMemSwapDropsTraces(t *testing.T) {
	code := chainCode(3, 100)
	c := newMachine(t, code)
	st := &TraceStats{}
	c.TraceStats = st
	if got := c.Run(1 << 20); got != Halted {
		t.Fatalf("state %v", got)
	}
	if st.Formed == 0 {
		t.Fatal("no trace formed before the swap")
	}
	// Fresh address space, same layout: the old traces must not fire.
	m2 := mem.New()
	if err := m2.Map(textBase, 0x4000, mem.RX); err != nil {
		t.Fatal(err)
	}
	if err := m2.Map(stackBase, 0x10000, mem.RW); err != nil {
		t.Fatal(err)
	}
	// Different program at the same addresses.
	if err := m2.LoadRaw(textBase, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.ESI, Imm: 77},
		isa.Instr{Op: isa.HLT},
	)); err != nil {
		t.Fatal(err)
	}
	c.Mem = m2
	c.RestoreArch(ArchState{})
	c.IP = textBase
	c.Reg[isa.ESP] = stackTop
	c.Resume()
	if got := c.Run(1000); got != Halted {
		t.Fatalf("state %v after swap, fault %v", got, c.Fault())
	}
	if c.Reg[isa.ESI] != 77 {
		t.Fatalf("esi = %d after swap, want 77 (stale trace executed)", c.Reg[isa.ESI])
	}
}

// TestTraceStatsAccessors pins the derived-metric math.
func TestTraceStatsAccessors(t *testing.T) {
	var st TraceStats
	if st.AvgLen() != 0 || st.SideExitRate() != 0 {
		t.Fatal("zero-value stats must report zero metrics")
	}
	st.Formed = 3
	st.LenHist[2] = 2
	st.LenHist[8] = 1
	if got := st.AvgLen(); got != 4 {
		t.Fatalf("AvgLen = %v, want 4", got)
	}
	st.Dispatches = 10
	st.SideExits = 2
	st.StaleExits = 1
	if got := st.SideExitRate(); got != 0.3 {
		t.Fatalf("SideExitRate = %v, want 0.3", got)
	}
}

// TestTraceFaultMidChain: a fault deep inside a trace retires exactly
// the instructions before it — identical to stepping — and records the
// same fault.
func TestTraceFaultMidChain(t *testing.T) {
	// A chain whose second block divides by a register that eventually
	// reaches zero: the IDIV faults mid-trace.
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.ADDI, Rd: isa.ESI, Imm: 1})      // 0
	add(isa.Instr{Op: isa.JMP, Imm: 0})                    // 6, falls through
	add(isa.Instr{Op: isa.SUBI, Rd: isa.EDX, Imm: 1})      // 11: edx counts down
	add(isa.Instr{Op: isa.IDIV, Rd: isa.EAX, Rs: isa.EDX}) // 17: faults at edx==0
	add(isa.Instr{Op: isa.JMP, Imm: ^uint32(19 + 5 - 1)})  // 19 -> 0
	mk := func(t *testing.T) *CPU {
		c := newMachine(t, code)
		c.Reg[isa.EDX] = 200 // plenty of passes to heat and trace first
		c.Reg[isa.EAX] = 1000
		return c
	}
	trc, _ := runBothEngines(t, mk, 1<<20)
	if f := trc.Fault(); f == nil || f.Kind != FaultDivide {
		t.Fatalf("fault %v, want divide fault", trc.Fault())
	}
}
