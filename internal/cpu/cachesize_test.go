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
// A four-pass spin comes first: the warm-up probe remembers only the
// last 128 fetch addresses by their low bits, so a loop that wide would
// never revisit an address the probe still holds, and the spin's head
// reaches warmBlockVisit on its fourth pass.
func wideLoop(links int, iters uint32) []byte {
	var code []byte
	add := func(in isa.Instr) { code = isa.MustEncode(code, in) }
	add(isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: iters}) // 5 bytes
	add(isa.Instr{Op: isa.MOVI, Rd: isa.EDX, Imm: 4})     // 5 bytes
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

// TestCacheSizes pins what a short loop allocates on each tier: the
// stepping engine 256 decode slots (14 KiB on 64-bit hosts) and no block
// table, the block and trace tiers 256 block slots (24 KiB) and no
// decode table.
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

// TestCacheTripPoints pins the visit on which each tier allocates its
// cache, on a loop whose head is the only recurring block:
//
//	movi ecx, 4
//	head: subi ecx, 1
//	      jnz head
//	      hlt
//
// The block tiers allocate no table while the head has been visited
// three times; the fourth visit's dispatch allocates it and builds the
// head's block, the only block the run builds. The stepping engine
// allocates its decode table at the first refetch, which fills a slot.
func TestCacheTripPoints(t *testing.T) {
	code := build(
		isa.Instr{Op: isa.MOVI, Rd: isa.ECX, Imm: 4},
		isa.Instr{Op: isa.SUBI, Rd: isa.ECX, Imm: 1},
		isa.Instr{Op: isa.JNZ, Imm: ^uint32(10)}, // back 11 to head
		isa.Instr{Op: isa.HLT},
	)
	for _, tier := range []struct {
		name         string
		block, trace bool
	}{{"block", true, false}, {"trace", true, true}} {
		withTiers(tier.block, tier.trace, func() {
			c := newMachine(t, code)
			bs := &BlockStats{}
			c.BlockStats = bs
			if st := c.Run(1 + 2*3); st != StepLimit {
				t.Fatalf("%s: state %v fault %v", tier.name, st, c.Fault())
			}
			if _, bc := c.CacheFootprint(); bc || bs.Builds != 0 {
				t.Fatalf("%s: after three visits of the head: block table %v, %d builds, want none",
					tier.name, bc, bs.Builds)
			}
			// One step of budget: the head's fourth dispatch.
			c.state = Running
			if st := c.Run(1); st != StepLimit {
				t.Fatalf("%s: state %v fault %v", tier.name, st, c.Fault())
			}
			if _, bc := c.CacheFootprint(); !bc || bs.Builds != 1 || bs.Dispatches != 1 {
				t.Fatalf("%s: the fourth visit's dispatch left block table %v, %d builds, %d dispatches, want the table and one of each",
					tier.name, bc, bs.Builds, bs.Dispatches)
			}
			c.state = Running
			if st := c.Run(100); st != Halted {
				t.Fatalf("%s: state %v fault %v", tier.name, st, c.Fault())
			}
			if bs.Builds != 1 || len(c.bcache) != bcacheSize {
				t.Fatalf("%s: %d builds and %d block slots, want 1 and %d", tier.name, bs.Builds, len(c.bcache), bcacheSize)
			}
		})
	}
	withTiers(false, false, func() {
		c := newMachine(t, code)
		ds := &DecodeStats{}
		c.DecodeStats = ds
		if st := c.Run(3); st != StepLimit {
			t.Fatalf("step: state %v fault %v", st, c.Fault())
		}
		if dc, _ := c.CacheFootprint(); dc {
			t.Fatal("step: decode table allocated before any refetch")
		}
		// The head's second fetch allocates the table and fills its slot;
		// its third hits.
		c.state = Running
		if st := c.Run(1); st != StepLimit {
			t.Fatalf("step: state %v fault %v", st, c.Fault())
		}
		if dc, bc := c.CacheFootprint(); !dc || bc || ds.Hits != 0 {
			t.Fatalf("step: first refetch left decode table %v, block table %v, %d hits, want the decode table only and no hit",
				dc, bc, ds.Hits)
		}
		c.state = Running
		if st := c.Run(2); st != StepLimit || ds.Hits != 1 {
			t.Fatalf("step: state %v, %d hits, want the head's third fetch to hit", st, ds.Hits)
		}
	})
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
				if len(c.bcache) != bcacheSize {
					t.Errorf("%s: %d block slots, want %d", tier.name, len(c.bcache), bcacheSize)
				}
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
