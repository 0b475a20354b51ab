package cpu

import (
	"testing"

	"softsec/internal/isa"
	"softsec/internal/mem"
)

// blockChainSize is the encoded size of one link of wideLoop's chain.
const blockChainSize = 11

// wideLoop returns a loop that runs iters times over a chain of links
// one-block basic blocks (ADDI; JMP to the next instruction), each
// blockChainSize bytes, so the loop body covers links·11 bytes of code.
// A two-pass spin comes first: the warm-up probe remembers only the last
// 128 fetch addresses by their low bits, so a loop that wide would never
// refetch an address the probe still holds.
func wideLoop(links int, iters uint32) []byte {
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: iters}) // 5 bytes
	add(isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: 2})     // 5 bytes
	add(isa.Instr{Op: isa.SUBI, Rd: isa.EDX, Imm: 1})     // 6 bytes
	add(isa.Instr{Op: isa.JNZ, Imm: ^uint32(10)})         // 5 bytes: back 11
	for i := 0; i < links; i++ {
		add(isa.Instr{Op: isa.ADDI, Rd: isa.EAX, Imm: 1}) // 6 bytes
		add(isa.Instr{Op: isa.JMP, Imm: 0})               // 5 bytes
	}
	add(isa.Instr{Op: isa.SUBI, Rd: isa.ECX, Imm: 1})     // 6 bytes
	add(isa.Instr{Op: isa.CMPI, Rd: isa.ECX, Imm: 0})     // 6 bytes
	back := -(links*blockChainSize + 6 + 6 + 5)           // to the first link
	add(isa.Instr{Op: isa.JNZ, Imm: uint32(int32(back))}) // 5 bytes
	add(isa.Instr{Op: isa.HLT})
	return code
}

// newWideMachine is newMachine with a text segment sized to code.
func newWideMachine(t *testing.T, code []byte) *CPU {
	t.Helper()
	m := mem.New()
	size := (uint32(len(code)) + mem.PageSize) &^ uint32(mem.PageMask)
	if err := m.Map(textBase, size, mem.RX); err != nil {
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

// withTiers runs f with the engine tier switches set, restoring them
// afterwards.
func withTiers(block, trace bool, f func()) {
	savedB, savedT := UseBlockEngine, UseTraceEngine
	defer func() { UseBlockEngine, UseTraceEngine = savedB, savedT }()
	UseBlockEngine, UseTraceEngine = block, trace
	f()
}

// TestCacheSizes pins what the first recurring address of a short loop
// allocates on each tier: the stepping engine 256 decode slots (16 KiB
// on 64-bit hosts) and no block table, the block and trace tiers 256
// block slots (28 KiB) and no decode table.
func TestCacheSizes(t *testing.T) {
	const want = 256
	for _, tier := range []struct {
		name         string
		block, trace bool
	}{{"step", false, false}, {"block", true, false}, {"trace", true, true}} {
		withTiers(tier.block, tier.trace, func() {
			c := newMachine(t, loopProgram())
			if st := c.Run(10000); st != Halted {
				t.Fatalf("%s: state %v fault %v", tier.name, st, c.Fault())
			}
			wantDecode, wantBlock := want, 0
			if tier.block {
				wantDecode, wantBlock = 0, want
			}
			if len(c.dcache) != wantDecode || len(c.bcache) != wantBlock {
				t.Errorf("%s: %d decode slots and %d block slots, want %d and %d",
					tier.name, len(c.dcache), len(c.bcache), wantDecode, wantBlock)
			}
		})
	}
}

// TestWideLoopOutgrowsCaches: a loop over more code than the decode
// and block caches cover evicts its own entries on every pass and still
// computes the right result on every tier. On the stepping tier every
// fetch probes the decode cache, so hits + misses equal the
// instructions retired, and every link misses on every pass.
func TestWideLoopOutgrowsCaches(t *testing.T) {
	const links = 600 // 6,600 bytes of loop body
	code := wideLoop(links, 50)
	if links <= bcacheSize || 2*links <= dcacheSize {
		t.Fatal("loop body must hold more block starts and instructions than the caches have slots")
	}
	for _, tier := range []struct {
		name         string
		block, trace bool
	}{{"step", false, false}, {"block", true, false}, {"trace", true, true}} {
		withTiers(tier.block, tier.trace, func() {
			c := newWideMachine(t, code)
			c.DecodeStats = &DecodeStats{}
			if st := c.Run(1_000_000); st != Halted {
				t.Fatalf("%s: state %v fault %v", tier.name, st, c.Fault())
			}
			if c.Reg[isa.EAX] != links*50 {
				t.Fatalf("%s: eax = %d, want %d", tier.name, c.Reg[isa.EAX], links*50)
			}
			if tier.block {
				return
			}
			if got := c.DecodeStats.Hits + c.DecodeStats.Misses; got != c.Steps {
				t.Errorf("%s: decode hits+misses = %d, retired %d", tier.name, got, c.Steps)
			}
			if c.DecodeStats.Misses < 50*links {
				t.Errorf("%s: %d decode misses, want a miss per link per pass", tier.name, c.DecodeStats.Misses)
			}
		})
	}
}
