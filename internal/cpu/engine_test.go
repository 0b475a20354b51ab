package cpu

import (
	"errors"
	"fmt"
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

// runBothEngines executes the same program through every tier — the
// trace engine, the block engine alone, and the stepping reference — and
// asserts bit-identical outcomes across all of them: state, registers,
// IP, flags, step count, fault rendering, and coverage bitmap. It
// returns the trace-tier machine and the stepping reference.
func runBothEngines(t *testing.T, mk func(t *testing.T) *CPU, maxSteps uint64) (*CPU, *CPU) {
	t.Helper()
	savedB, savedT := UseBlockEngine, UseTraceEngine
	defer func() { UseBlockEngine, UseTraceEngine = savedB, savedT }()

	UseBlockEngine, UseTraceEngine = true, true
	trc := mk(t)
	trc.Coverage = &Coverage{}
	trc.TraceStats = &TraceStats{}
	stTrc := trc.Run(maxSteps)

	UseBlockEngine, UseTraceEngine = true, false
	blk := mk(t)
	blk.Coverage = &Coverage{}
	stBlk := blk.Run(maxSteps)

	UseBlockEngine = false
	ref := mk(t)
	ref.Coverage = &Coverage{}
	stRef := ref.Run(maxSteps)

	want := outcomeOf(ref, stRef)
	check := func(name string, got *CPU, st State) {
		t.Helper()
		if d := want.diff(outcomeOf(got, st)); d != "" {
			t.Fatalf("%s vs step: %s", name, d)
		}
	}
	check("block", blk, stBlk)
	check("trace", trc, stTrc)
	return trc, ref
}

// outcome is what a run leaves that every tier must agree on: state,
// registers, IP, flags, step count, fault rendering and coverage bitmap.
type outcome struct {
	state State
	reg   [isa.NumRegs]uint32
	ip    uint32
	f     Flags
	steps uint64
	fault string
	cov   *Coverage
}

func outcomeOf(c *CPU, st State) outcome {
	o := outcome{state: st, reg: c.Reg, ip: c.IP, f: c.F, steps: c.Steps, cov: c.Coverage}
	if f := c.Fault(); f != nil {
		o.fault = f.Error()
	}
	return o
}

// diff describes the first way got differs from want, or returns "".
func (want outcome) diff(got outcome) string {
	switch {
	case got.state != want.state:
		return fmt.Sprintf("state %v, want %v (faults %q / %q)", got.state, want.state, got.fault, want.fault)
	case got.reg != want.reg:
		return fmt.Sprintf("registers %v, want %v", got.reg, want.reg)
	case got.ip != want.ip:
		return fmt.Sprintf("IP %#x, want %#x", got.ip, want.ip)
	case got.f != want.f:
		return fmt.Sprintf("flags %+v, want %+v", got.f, want.f)
	case got.steps != want.steps:
		return fmt.Sprintf("step count %d, want %d", got.steps, want.steps)
	case got.fault != want.fault:
		return fmt.Sprintf("fault %q, want %q", got.fault, want.fault)
	case !got.cov.Equal(want.cov):
		return fmt.Sprintf("coverage bitmaps differ (%d vs %d edges)", got.cov.Count(), want.cov.Count())
	}
	return ""
}

// loopProgram is a counted loop with calls and stack traffic: blocks of
// several shapes, executed hot so the block cache and hotness gate both
// engage.
func loopProgram() []byte {
	// T+0   movi esi, 0
	// T+5   movi edi, 25
	// T+10 loop: cmp esi, edi
	// T+12  jae done (+15 over: call(5)+addi(6)+jmp(5) -> disp 16)
	// T+17  call body (rel to T+22 -> body at T+33: disp 11)
	// T+22  add esi, 1
	// T+28  jmp loop (rel to T+33, target T+10: disp -23)
	// T+33 done->? hlt   -- careful: 'done' label must be after jmp
	// layout below recomputed precisely in code.
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.MOVI, Rd: isa.ESI, Imm: 0})     // 0, size 5
	add(isa.Instr{Op: isa.MOVI, Rd: isa.EDI, Imm: 25})    // 5, size 5
	add(isa.Instr{Op: isa.CMP, Rd: isa.ESI, Rs: isa.EDI}) // 10, size 2
	add(isa.Instr{Op: isa.JAE, Imm: 16})                  // 12, size 5 -> target 33
	add(isa.Instr{Op: isa.CALL, Imm: 12})                 // 17, size 5 -> target 34
	add(isa.Instr{Op: isa.ADDI, Rd: isa.ESI, Imm: 1})     // 22, size 6
	add(isa.Instr{Op: isa.JMP, Imm: ^uint32(22)})         // 28, size 5 -> target 10
	add(isa.Instr{Op: isa.HLT})                           // 33: done
	// body at 34: push/pop traffic then ret
	add(isa.Instr{Op: isa.PUSH, Rd: isa.EAX}) // 34
	add(isa.Instr{Op: isa.ADDI, Rd: isa.EAX, Imm: 3})
	add(isa.Instr{Op: isa.POP, Rd: isa.ECX})
	add(isa.Instr{Op: isa.RET})
	return code
}

func TestEnginesAgreeOnLoop(t *testing.T) {
	blk, _ := runBothEngines(t, func(t *testing.T) *CPU {
		return newMachine(t, loopProgram())
	}, 10000)
	if blk.StateOf() != Halted {
		t.Fatalf("state %v, want halted", blk.StateOf())
	}
	if blk.Reg[isa.ESI] != 25 {
		t.Fatalf("esi = %d, want 25", blk.Reg[isa.ESI])
	}
}

// TestStepLimitExactAcrossEngines sweeps every budget from 0 to the
// program's full length and asserts the two engines stop at identical
// instruction counts and machine states — the partial-retirement
// contract: a block that would exceed maxSteps retires exactly up to the
// budget.
func TestStepLimitExactAcrossEngines(t *testing.T) {
	for budget := uint64(0); budget <= 160; budget++ {
		runBothEngines(t, func(t *testing.T) *CPU {
			return newMachine(t, loopProgram())
		}, budget)
	}
	// And the exact boundary semantics: a budget that lands mid-block
	// stops with precisely that many retirements, at the same IP a
	// 3-instruction manual step sequence reaches.
	c := newMachine(t, loopProgram())
	if st := c.Run(3); st != StepLimit {
		t.Fatalf("state %v, want step-limit", st)
	}
	if c.Steps != 3 {
		t.Fatalf("steps = %d, want exactly 3", c.Steps)
	}
	ref := newMachine(t, loopProgram())
	for i := 0; i < 3; i++ {
		if !ref.Step() {
			t.Fatalf("reference step %d: %v", i, ref.Fault())
		}
	}
	if c.IP != ref.IP || c.Reg != ref.Reg {
		t.Fatalf("mid-block stop diverged from stepping: ip %#x vs %#x", c.IP, ref.IP)
	}
}

// TestBlockSelfModify rewrites an instruction *later in the currently
// executing block*: the store at index i patches the immediate of the
// instruction at i+1. The block engine must observe its own write, just
// as the stepping engine refetches every instruction.
func TestBlockSelfModify(t *testing.T) {
	mk := func(t *testing.T) *CPU {
		// One straight-line block, executed twice (hotness gate builds it
		// on the second pass) via an outer loop:
		//  T+0  movi edx, 0
		//  T+5 loop:
		//  T+5  movi ecx, T+23+1          ; address of the patched imm
		//  T+10 movi eax, 0x77
		//  T+15 storeb [ecx+0], eax       ; rewrites next instr's imm byte
		//  T+21 hmm storeb size 6 -> at 15..20
		//  T+21 movi ebx, 0x11            ; patched to 0x77 in-flight
		//  T+26 cmp edx, 0... (see below)
		var code []byte
		add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
		add(isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: 0})                // 0
		add(isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: textBase + 22})    // 5: imm byte of MOVI at 21
		add(isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x77})             // 10
		add(isa.Instr{Op: isa.STOREB, Rd: isa.ECX, Rs: isa.EAX, Imm: 0}) // 15
		add(isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 0x11})             // 21: patched
		add(isa.Instr{Op: isa.CMPI, Rd: isa.EDX, Imm: 1})                // 26
		add(isa.Instr{Op: isa.JZ, Imm: 11})                              // 32 -> done at 48
		add(isa.Instr{Op: isa.ADDI, Rd: isa.EDX, Imm: 1})                // 37
		add(isa.Instr{Op: isa.JMP, Imm: ^uint32(42)})                    // 43 -> loop at 5
		add(isa.Instr{Op: isa.HLT})                                      // 48
		return newRWXMachine(t, code)
	}
	blk, _ := runBothEngines(t, mk, 1000)
	if blk.Reg[isa.EBX] != 0x77 {
		t.Fatalf("ebx = %#x, want 0x77 (stale block decode served after in-block self-modify)",
			blk.Reg[isa.EBX])
	}
}

// TestBlockEngineBreakpointFallback: breakpoints force the stepping
// engine and still pause exactly at the armed address under Run.
func TestBlockEngineBreakpointFallback(t *testing.T) {
	c := newMachine(t, loopProgram())
	c.SetBreak(textBase+34, true) // body entry
	if st := c.Run(10000); st != Paused {
		t.Fatalf("state %v, want paused", st)
	}
	if c.IP != textBase+34 {
		t.Fatalf("paused at %#x, want %#x", c.IP, textBase+34)
	}
	c.Resume()
	c.SetBreak(textBase+34, false)
	if st := c.Run(10000); st != Halted {
		t.Fatalf("state %v after resume, fault %v", st, c.Fault())
	}
}

// TestBlockEnginePolicyFallback: a Policy that does not implement
// BlockCheckCompiler automatically falls back to stepping under Run and
// enforces exactly as it would per instruction.
func TestBlockEnginePolicyFallback(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 7},
		isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: stackBase},
		isa.Instr{Op: isa.STOREW, Rd: isa.EBX, Rs: isa.EAX, Imm: 0},
		isa.Instr{Op: isa.HLT},
	))
	c.Policy = blockStores{}
	if st := c.Run(100); st != Faulted {
		t.Fatalf("state %v, want faulted", st)
	}
	if f := c.Fault(); f == nil || f.Kind != FaultPolicy {
		t.Fatalf("fault %v, want policy fault", c.Fault())
	}
	if c.Steps != 2 {
		t.Fatalf("steps = %d, want 2 (the store must not retire)", c.Steps)
	}
}

// TestBuildBlockFormation pins the block formation rules: terminator
// kinds, the page-boundary stop, the length cap, and the undecodable
// stop.
func TestBuildBlockFormation(t *testing.T) {
	// Terminator stop.
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.ADDI, Rd: isa.EAX, Imm: 2},
		isa.Instr{Op: isa.JMP, Imm: ^uint32(4)},
		isa.Instr{Op: isa.HLT},
	))
	b := c.BuildBlockAt(textBase)
	if b == nil || b.Len() != 3 || !b.Term || b.Stop != StopTerminator {
		t.Fatalf("terminator block: %+v (len %d)", b, b.Len())
	}
	if b.End != textBase+16 {
		t.Fatalf("end = %#x, want %#x", b.End, textBase+16)
	}
	// HLT-only block.
	if b := c.BuildBlockAt(textBase + 16); b == nil || b.Len() != 1 || !b.Term {
		t.Fatalf("hlt block malformed: %+v", b)
	}

	// Length cap: a page of NOPs never forms a block beyond MaxBlockLen.
	nops := make([]isa.Instr, MaxBlockLen+8)
	for i := range nops {
		nops[i] = isa.Instr{Op: isa.NOP}
	}
	c2 := newMachine(t, build(nops...))
	if b := c2.BuildBlockAt(textBase); b == nil || b.Len() != MaxBlockLen || b.Stop != StopCap {
		t.Fatalf("cap block: len %d stop %v", b.Len(), b.Stop)
	}

	// Page boundary: straight-line code crossing a page break stops at
	// the boundary (the next block resumes there).
	m := mem.New()
	if err := m.Map(textBase, 2*mem.PageSize, mem.RX); err != nil {
		t.Fatal(err)
	}
	fill := make([]byte, 2*mem.PageSize)
	for i := range fill {
		fill[i] = 0x90 // NOP
	}
	if err := m.LoadRaw(textBase, fill); err != nil {
		t.Fatal(err)
	}
	c3 := New(m)
	start := textBase + mem.PageSize - 4
	b3 := c3.BuildBlockAt(start)
	if b3 == nil || b3.Stop != StopPageBoundary || b3.End != textBase+mem.PageSize {
		t.Fatalf("page-boundary block: %+v", b3)
	}
	if b3.Len() != 4 {
		t.Fatalf("page-boundary block len = %d, want 4", b3.Len())
	}

	// A first instruction that itself crosses the boundary forms a
	// single-instruction block spanning two pages.
	m.PokeWord(textBase+mem.PageSize-2, 0x000000B8) // MOVI eax at page end - 2
	bx := c3.BuildBlockAt(textBase + mem.PageSize - 2)
	if bx == nil || bx.Len() != 1 || bx.End != textBase+mem.PageSize+3 {
		t.Fatalf("crossing first instruction: %+v", bx)
	}

	// Undecodable stop: 0xFD is not an opcode.
	c4 := newRWXMachine(t, append(build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
	), 0xFD))
	if b := c4.BuildBlockAt(textBase); b == nil || b.Len() != 1 || b.Stop != StopUndecodable {
		t.Fatalf("undecodable stop: %+v", b)
	}
	// And a first byte that does not decode yields no block at all.
	if b := c4.BuildBlockAt(textBase + 5); b != nil {
		t.Fatalf("block built at undecodable pc: %+v", b)
	}
}

// TestBlockStatsAndHotness: the first visit to a pc steps (the hotness
// gate), the second builds, later visits hit.
func TestBlockStatsAndHotness(t *testing.T) {
	c := newMachine(t, loopProgram())
	st := &BlockStats{}
	c.BlockStats = st
	if s := c.Run(100000); s != Halted {
		t.Fatalf("state %v", s)
	}
	if st.Builds == 0 || st.Hits == 0 || st.StepFalls == 0 {
		t.Fatalf("stats did not engage: %+v", st)
	}
	if st.Hits < st.Builds {
		t.Fatalf("hot loop should hit more than it builds: %+v", st)
	}
	var lens uint64
	for _, n := range st.LenHist {
		lens += n
	}
	if lens != st.Builds {
		t.Fatalf("length histogram (%d) does not sum to builds (%d)", lens, st.Builds)
	}
}

// TestEnginesAgreeUnderStepLimitFault runs a faulting program under both
// engines.
func TestEnginesAgreeUnderFault(t *testing.T) {
	mk := func(t *testing.T) *CPU {
		return newMachine(t, build(
			isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
			isa.Instr{Op: isa.MOVI, Rd: isa.EBX, Imm: 0}, // divisor 0
			isa.Instr{Op: isa.IDIV, Rd: isa.EAX, Rs: isa.EBX},
			isa.Instr{Op: isa.HLT},
		))
	}
	blk, _ := runBothEngines(t, mk, 100)
	if blk.StateOf() != Faulted || blk.Fault().Kind != FaultDivide {
		t.Fatalf("state %v fault %v", blk.StateOf(), blk.Fault())
	}
}

// TestMemorySwapDropsCaches: reattaching a CPU to a different Memory
// must not serve decodes or blocks stamped against the old one.
func TestMemorySwapDropsCaches(t *testing.T) {
	c := newMachine(t, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 1},
		isa.Instr{Op: isa.HLT},
	))
	if st := c.Run(100); st != Halted {
		t.Fatalf("state %v", st)
	}
	// m2 mirrors the original's mapping sequence so its structural
	// generation matches — without the swap guard, the stale cache entry
	// would probe as valid against the old memory's stamps.
	m2 := mem.New()
	if err := m2.Map(textBase, 0x4000, mem.RX); err != nil {
		t.Fatal(err)
	}
	if err := m2.Map(stackBase, 0x10000, mem.RW); err != nil {
		t.Fatal(err)
	}
	if err := m2.LoadRaw(textBase, build(
		isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 2},
		isa.Instr{Op: isa.HLT},
	)); err != nil {
		t.Fatal(err)
	}
	c.Mem = m2
	c.IP = textBase
	c.RestoreArch(ArchState{IP: textBase, state: Running})
	if st := c.Run(100); st != Halted {
		t.Fatalf("rerun state %v fault %v", st, c.Fault())
	}
	if c.Reg[isa.EAX] != 2 {
		t.Fatalf("eax = %d: stale cache served across a memory swap", c.Reg[isa.EAX])
	}
}

// TestUnmappedFetchAcrossEngines: a wild jump to unmapped memory faults
// identically through both engines.
func TestUnmappedFetchAcrossEngines(t *testing.T) {
	mk := func(t *testing.T) *CPU {
		return newMachine(t, build(
			isa.Instr{Op: isa.MOVI, Rd: isa.EAX, Imm: 0x41414141},
			isa.Instr{Op: isa.JMPR, Rd: isa.EAX},
		))
	}
	blk, _ := runBothEngines(t, mk, 100)
	var mf *mem.Fault
	if !errors.As(blk.Fault(), &mf) || mf.Kind != mem.FaultUnmapped {
		t.Fatalf("fault %v, want unmapped", blk.Fault())
	}
}
