package cpu

// The basic-block execution engine.
//
// The stepping engine pays fetch dispatch, breakpoint and profiler tests,
// policy binding, and a policy exec check on every instruction. None of
// that work depends on anything but the instruction stream, which is
// immutable while its pages' write stamps hold — so this engine lifts it to
// basic-block granularity: straight-line runs of decoded instructions
// are built once, cached in a direct-mapped block cache keyed by
// (pc, per-page write stamps), and executed in a tight loop
// that pays the per-instruction switch and nothing else.
//
// Per-block, once, at entry:
//   - the cache probe (which revalidates the whole fetch span: the block
//     was built with per-byte X checks, and the generation discipline
//     guarantees the bytes and their executability are unchanged on a hit);
//   - the policy block summary: a Policy implementing BlockCheckCompiler
//     proves once per span that every sequential CheckExec inside the
//     block is allowed (and optionally that no data access can fail, in
//     which case the per-access checkers are skipped too);
//   - the step-budget computation: a block never retires past Run's
//     maxSteps — it partially retires and stops exactly at the budget,
//     bit-identical to the stepping engine.
//
// Block formation is paid only for code that runs at least twice: the
// first visit to a pc single-steps and just remembers the address, and
// the block is built when the pc recurs. Fuzzing campaigns constantly
// send wild control transfers into freshly mutated one-shot byte soup;
// decoding 32 instructions of junk ahead of a fault that arrives in two
// would cost more than the stepping engine ever did.
//
// Coverage needs no special handling: branch edges are recorded by
// exec1's branch() at control transfers, which are exactly the block
// terminators, so the bitmap semantics are unchanged by construction.
//
// Self-modifying code: after every sequential store retired inside a
// block (PUSH/PUSHI/STOREW/STOREB), the engine revalidates the block's
// stamps before executing the next cached instruction; a program that
// rewrites the block currently executing falls back to stepping from the
// next instruction and observes its own writes exactly as the stepping
// engine would.
//
// Fallbacks (automatic, re-decided at every Run loop iteration): a
// profiler, an armed breakpoint, a Policy without a block compiler,
// or a span the compiler refuses to summarize — all drive execution
// through Step, the bit-identical semantic reference.

import (
	"softsec/internal/isa"
	"softsec/internal/mem"
)

// UseBlockEngine gates the block engine package-wide. The differential
// tests flip it to force every Run through the single-step reference
// engine; it is not intended to change mid-Run.
var UseBlockEngine = true

// BlockCheckCompiler is an optional interface a Policy may implement, in
// addition to CheckCompiler, to let the block engine validate a whole
// straight-line span once at block-summary time instead of checking
// every instruction.
type BlockCheckCompiler interface {
	// CompileBlockCheck summarizes the policy over the straight-line span
	// [start, end], where end is the fall-through target one past the
	// last instruction byte.
	//
	// ok reports that every CheckExec(from, to) the stepping engine would
	// issue for sequential retirements inside the span — consecutive
	// instruction addresses from start up to and including the final
	// fall-through to end — is allowed. When false, the engine executes
	// the span by single-stepping (which reproduces any denial exactly);
	// conservative answers are always sound.
	//
	// dataFree additionally reports that no CheckRead/CheckWrite issued
	// by instructions in the span can fail, regardless of the (dynamic)
	// addresses accessed; the engine then skips the per-access data
	// checkers for the span.
	CompileBlockCheck(start, end uint32) (dataFree, ok bool)
}

// Block cache geometry and block formation limits. The direct-mapped
// table is sized like the decode cache (see dcacheBits); with fewer
// slots, the blocks of a fuzz campaign's hot loops conflict often
// enough to slow it. Allocation is warm-gated (see the warm-up probe in
// cpu.go): only a process that demonstrably re-executes code pays the
// table's zeroing, so one-shot loads (BenchmarkFullReload) stay free.
const (
	bcacheBits = 8
	bcacheSize = 1 << bcacheBits
	// MaxBlockLen caps block formation (and bounds the partial-retirement
	// scan); it must stay ≤ 32 so the store mask fits a uint32.
	MaxBlockLen = 32
)

// StopReason records why block formation ended where it did.
type StopReason uint8

const (
	// StopTerminator: the block ends at a control transfer, HLT, TRAP or
	// INT (the instruction is included as the block's terminator).
	StopTerminator StopReason = iota
	// StopPageBoundary: the next instruction would extend onto another
	// page; the block ends before it so one (or, for a single crossing
	// first instruction, two) page write stamps cover the whole span.
	StopPageBoundary
	// StopCap: the block reached MaxBlockLen instructions.
	StopCap
	// StopUndecodable: the next byte does not fetch or decode; execution
	// reaching it must fault through the stepping path.
	StopUndecodable
	numStopReasons
)

func (r StopReason) String() string {
	switch r {
	case StopTerminator:
		return "terminator"
	case StopPageBoundary:
		return "page-boundary"
	case StopCap:
		return "length-cap"
	case StopUndecodable:
		return "undecodable"
	default:
		return "unknown"
	}
}

// Block is one straight-line decoded run: instructions from Start,
// ending at the first terminator (CALL/CALLR/RET/JMP/JMPR/Jcc/HLT/TRAP/
// INT), page boundary, undecodable byte, or the length cap.
type Block struct {
	Start uint32
	End   uint32 // fall-through target: Start + total encoded size
	Term  bool   // the last instruction is a terminator
	Stop  StopReason

	ins []isa.Instr
	// wmask marks instructions that store to data memory on the
	// sequential path; the engine revalidates the block after each.
	wmask uint32
}

// Len returns the number of instructions in the block.
func (b *Block) Len() int { return len(b.ins) }

// BlockStats counts block-engine activity when installed on a CPU. The
// histograms document where block formation stops early — the data the
// bench helper renders.
type BlockStats struct {
	Builds     uint64 // blocks built or rebuilt
	Hits       uint64 // block cache hits
	Dispatches uint64 // blocks entered (hit or fresh build)
	StepFalls  uint64 // Run iterations falling back to the stepping engine
	Stales     uint64 // built blocks demoted at dispatch (invalidated)
	SelfStales uint64 // blocks invalidated by their own stores (SMC)
	LenHist    [MaxBlockLen + 1]uint64
	StopHist   [numStopReasons]uint64
}

// bcEntry is one block-cache slot. Validity mirrors the decode cache —
// tag and span write stamps — plus the policy epoch
// the block's summary was computed under. A slot whose tag matches but
// whose block is empty is a pc in the hotness gate: heat counts step
// visits, and the block is built when heat reaches blockHeat.
type bcEntry struct {
	tag  uint32
	pe   uint32
	heat uint8
	// exe counts dispatches of the built block (saturating) — the
	// edge-hotness signal the trace recorder keys on.
	exe uint8
	// miss counts consecutive conflict probes by other pcs while the slot
	// holds a valid built block; see the eviction gate in blockFor.
	miss     uint8
	ok       bool // policy summary permits block execution
	dataFree bool // policy proved per-access data checks cannot fire
	w0       *uint64
	g0       uint64
	w1       *uint64 // nil unless the span covers a second page
	g1       uint64
	blk      Block
}

// blockHeat is the number of step visits a pc must accumulate before
// the engine invests in block formation. Invalidation demotes in two
// tiers: a block found stale at probe time (typically rewritten between
// visits — e.g. its page rolled back by a snapshot restore — but
// possibly still hot within the current run) drops one visit below the
// gate and rebuilds at most every other visit, while a block that
// invalidates *itself* mid-flight (code storing to the very page it
// executes from — the pathological rebuild storm) drops to heat zero
// and spends most visits stepping.
const blockHeat = 2

// evictMiss is the number of consecutive conflict probes a competing pc
// must land on a slot holding a valid built block before it claims the
// slot. A fuzzing campaign constantly throws one-shot wild transfers at
// fresh addresses; letting each first visit steal a slot used to evict
// the victim's hot loop blocks once per execution and rebuild them right
// after — the rebuild churn this gate exists to stop. A genuinely hot
// competitor claims the slot after a handful of visits; a one-shot pc
// steps through exactly as it would have anyway.
const evictMiss = 4

// blockValid reports whether e's stamps still describe the bytes at
// e.tag. Only meaningful for entries holding a built block.
func (c *CPU) blockValid(e *bcEntry) bool {
	return *e.w0 == e.g0 && (e.w1 == nil || *e.w1 == e.g1)
}

// buildBlock decodes the basic block starting at pc into b, reusing b's
// instruction storage. It reports false (leaving b empty) when the first
// instruction does not fetch or decode.
func (c *CPU) buildBlock(pc uint32, b *Block) bool {
	var scratch [MaxBlockLen]isa.Instr
	n := 0
	*b = Block{Start: pc, ins: b.ins[:0]}
	for {
		in, err := c.decodeAt(pc)
		if err != nil {
			if n == 0 {
				return false
			}
			b.Stop = StopUndecodable
			break
		}
		// A block never extends onto a second page — except when its very
		// first instruction itself crosses, which forms a one-instruction
		// block spanning exactly two pages. Keeping every span within the
		// page(s) stamped at fill time is what makes the two write-stamp
		// compares of the cache probe cover the entire fetch span.
		if n > 0 && (pc&^uint32(mem.PageMask) != b.Start&^uint32(mem.PageMask) ||
			pc&mem.PageMask+uint32(in.Size) > mem.PageSize) {
			b.Stop = StopPageBoundary
			break
		}
		if isa.WritesMem(in.Op) {
			b.wmask |= 1 << uint(n)
		}
		scratch[n] = in
		n++
		pc += uint32(in.Size)
		if isa.EndsBlock(in.Op) {
			b.Term = true
			b.Stop = StopTerminator
			break
		}
		if n == MaxBlockLen {
			b.Stop = StopCap
			break
		}
	}
	b.End = pc
	b.ins = append(b.ins, scratch[:n]...)
	return true
}

// BuildBlockAt decodes the basic block starting at pc without consulting
// or filling the cache, or touching any CPU state. It returns nil when
// the first instruction does not fetch or decode. Exported for
// benchmarks and the block-length histogram helper.
func (c *CPU) BuildBlockAt(pc uint32) *Block {
	b := &Block{}
	if !c.buildBlock(pc, b) {
		return nil
	}
	return b
}

// blockFor returns the cache entry holding a valid block for pc, or nil
// when this dispatch should single-step instead: the pc's first visit
// (hotness gate) or a first instruction that will not decode (the step
// produces the fault).
func (c *CPU) blockFor(pc uint32) *bcEntry {
	if c.bcache == nil {
		if c.dcache == nil {
			// Still in the pre-cache warm-up (no address has been
			// fetched twice): keep stepping, pay for nothing.
			return nil
		}
		c.bcache = make([]bcEntry, bcacheSize)
	}
	e := &c.bcache[pc&(bcacheSize-1)]
	if e.tag == pc {
		if len(e.blk.ins) > 0 {
			if e.pe == c.polEpoch && c.blockValid(e) {
				if c.BlockStats != nil {
					c.BlockStats.Hits++
				}
				e.miss = 0
				return e
			}
			// The built block went stale (code rewritten under it, or the
			// policy changed): demote one visit below the gate and step
			// this one — see blockHeat for the two demotion tiers.
			e.blk.ins = e.blk.ins[:0]
			e.heat = blockHeat - 1
			e.exe = 0
			if c.BlockStats != nil {
				c.BlockStats.Stales++
			}
			if c.Events != nil {
				c.Events.Emit("block.stale", pc, 0)
			}
			return nil
		}
		if e.heat++; e.heat < blockHeat {
			return nil
		}
		// A recurring, stable pc: worth block formation.
		if !c.fillBlockEntry(e, pc) {
			return nil
		}
		return e
	}
	// Conflict probe: a slot holding a valid built block is not
	// surrendered to a newcomer until the newcomer keeps coming back
	// (evictMiss) — see the eviction gate rationale above.
	if len(e.blk.ins) > 0 && e.pe == c.polEpoch && c.blockValid(e) {
		if e.miss++; e.miss < evictMiss {
			return nil
		}
	}
	// First visit (or a persistent competitor claiming the slot):
	// remember the pc, execute it by stepping. One-shot code (wild fuzz
	// transfers into freshly mutated bytes) never pays block formation;
	// anything that recurs is built once it proves stable.
	e.tag = pc
	e.heat = 1
	e.exe = 0
	e.miss = 0
	e.blk.ins = e.blk.ins[:0]
	return nil
}

// fillBlockEntry (re)builds e's block and policy summary for pc.
func (c *CPU) fillBlockEntry(e *bcEntry, pc uint32) bool {
	if !c.buildBlock(pc, &e.blk) {
		return false
	}
	e.pe = c.polEpoch
	e.ok = true
	e.dataFree = false
	e.w0, e.g0 = c.Mem.CodeStamp(pc)
	e.w1 = nil
	if last := e.blk.End - 1; last/mem.PageSize != pc/mem.PageSize {
		e.w1, e.g1 = c.Mem.CodeStamp(last)
	}
	if c.bound != nil {
		// Run only dispatches here when a block compiler is bound.
		e.dataFree, e.ok = c.blockCheck(e.blk.Start, e.blk.End)
	}
	if st := c.BlockStats; st != nil {
		st.Builds++
		st.LenHist[len(e.blk.ins)]++
		st.StopHist[e.blk.Stop]++
	}
	if c.Events != nil {
		c.Events.Emit("block.build", pc, uint64(len(e.blk.ins)))
	}
	return true
}

// blockStep advances the machine by (at most) one basic block, retiring
// no instruction past budget. It assumes c.state == Running and
// c.Steps < budget.
func (c *CPU) blockStep(budget uint64) {
	c.ensureBound()
	if c.bound != nil && c.blockCheck == nil {
		// Policy without a block compiler: automatic stepping fallback.
		if c.BlockStats != nil {
			c.BlockStats.StepFalls++
		}
		c.Step()
		return
	}
	e := c.blockFor(c.IP)
	if e == nil || !e.ok {
		if c.BlockStats != nil {
			c.BlockStats.StepFalls++
		}
		c.Step()
		return
	}
	if c.BlockStats != nil {
		c.BlockStats.Dispatches++
	}
	n := len(e.blk.ins)
	if rem := budget - c.Steps; uint64(n) > rem {
		// Partial retirement: StepLimit must fire at the same instruction
		// count as the stepping engine.
		n = int(rem)
	}
	if e.dataFree && (c.chkRead != nil || c.chkWrite != nil) {
		c.noDataChk = true
	}
	c.runBlock(e, n)
	c.noDataChk = false
}

// runBlock executes the first n cached instructions of e's block. The
// policy's block summary has already cleared every sequential transfer
// inside the span, so fall-through retirement is a bare IP advance.
func (c *CPU) runBlock(e *bcEntry, n int) {
	b := &e.blk
	ip := c.IP
	for i := 0; i < n; i++ {
		in := b.ins[i]
		next := ip + uint32(in.Size)
		if c.exec1(in, ip, next) != execSeq {
			// Control transfer, stop, or fault: exec1 finished the
			// retirement (or recorded the fault) itself.
			return
		}
		c.Steps++
		c.IP = next
		ip = next
		if b.wmask>>uint(i)&1 == 1 && i+1 < n && !c.blockValid(e) {
			// The store may have rewritten this block's own bytes: bail
			// out so the Run loop refetches from here through fresh
			// decodes, and demote the entry to heat zero — a block that
			// invalidates itself mid-flight (code executing out of
			// writable pages it is storing to) is cheaper to step than
			// to rebuild (see blockHeat).
			e.blk.ins = e.blk.ins[:0]
			e.heat = 0
			if c.BlockStats != nil {
				c.BlockStats.SelfStales++
			}
			if c.Events != nil {
				c.Events.Emit("block.selfstale", b.Start, uint64(i))
			}
			return
		}
	}
}
