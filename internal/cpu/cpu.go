// Package cpu implements the SM32 processor: a fetch-decode-execute
// interpreter over internal/isa instructions and internal/mem memory.
//
// The CPU is where the two enforcement layers of the paper live:
//
//   - page permissions are checked on every access by internal/mem (this is
//     what makes Data Execution Prevention real: executing injected bytes on
//     a writable page faults in Fetch);
//   - an optional Policy receives every memory access and every instruction-
//     pointer movement, which is exactly the hook a Protected Module
//     Architecture needs to implement the paper's three access-control rules
//     (Section IV-A). The CPU itself knows nothing about modules.
package cpu

import (
	"fmt"

	"softsec/internal/isa"
	"softsec/internal/mem"
	"softsec/internal/telemetry"
)

// Flags is the SM32 condition-code register.
type Flags struct {
	Z bool // zero
	S bool // sign
	C bool // carry / unsigned borrow
	O bool // signed overflow
}

// State describes why the CPU is not (or no longer) executing.
type State int

const (
	// Running: the CPU can execute further instructions.
	Running State = iota
	// Halted: an HLT instruction was retired (bare-metal tests).
	Halted
	// Exited: a trap handler requested termination with an exit code.
	Exited
	// Faulted: execution stopped at a fault; Fault() describes it.
	Faulted
	// Paused: a breakpoint was hit; Resume() continues.
	Paused
	// StepLimit: Run exhausted its instruction budget.
	StepLimit
)

func (s State) String() string {
	switch s {
	case Running:
		return "running"
	case Halted:
		return "halted"
	case Exited:
		return "exited"
	case Faulted:
		return "faulted"
	case Paused:
		return "paused"
	case StepLimit:
		return "step-limit"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// FaultKind classifies CPU faults.
type FaultKind int

const (
	// FaultMemory wraps a mem.Fault (unmapped or permission violation).
	FaultMemory FaultKind = iota
	// FaultPolicy is an access-control violation raised by the installed
	// Policy (e.g. a PMA rule).
	FaultPolicy
	// FaultDecode is an invalid or truncated instruction.
	FaultDecode
	// FaultDivide is a division (or modulus) by zero.
	FaultDivide
	// FaultFailFast is INT 0x29: a defensive check (stack canary, secure-
	// compilation guard) detected corruption and aborted.
	FaultFailFast
	// FaultTrap is the one-byte TRAP (0xCC) instruction.
	FaultTrap
	// FaultNoHandler is an INT with no trap handler installed.
	FaultNoHandler
	// FaultCFI is a shadow-stack mismatch: a RET tried to transfer to an
	// address other than the one its matching CALL recorded — the
	// signature of every return-address hijack (hardware-assisted
	// control-flow integrity in the style of Intel CET; the natural next
	// step after the paper's Section III-C countermeasures).
	FaultCFI
)

func (k FaultKind) String() string {
	switch k {
	case FaultMemory:
		return "memory"
	case FaultPolicy:
		return "policy"
	case FaultDecode:
		return "decode"
	case FaultDivide:
		return "divide"
	case FaultFailFast:
		return "fail-fast"
	case FaultTrap:
		return "trap"
	case FaultNoHandler:
		return "no-handler"
	case FaultCFI:
		return "cfi-shadow-stack"
	default:
		return fmt.Sprintf("FaultKind(%d)", int(k))
	}
}

// Fault describes why the CPU faulted. It satisfies error.
type Fault struct {
	Kind FaultKind
	IP   uint32 // address of the faulting instruction
	Err  error  // underlying mem/policy error, when any
}

func (f *Fault) Error() string {
	if f.Err != nil {
		return fmt.Sprintf("cpu fault at 0x%08x: %s: %v", f.IP, f.Kind, f.Err)
	}
	return fmt.Sprintf("cpu fault at 0x%08x: %s", f.IP, f.Kind)
}

func (f *Fault) Unwrap() error { return f.Err }

// Policy receives every memory access and instruction-pointer movement.
// Implementations return a non-nil error to deny the operation, which the
// CPU converts into a FaultPolicy. internal/pma provides the Protected
// Module Architecture policy; a nil Policy allows everything, which is the
// "classic" machine of Section III.
//
// The CPU binds a policy's checkers to function values once, when it first
// notices the Policy field changed (at Step/Run/Push/Pop entry), rather
// than testing Policy != nil on every access — so the nil-policy machine
// pays nothing on its access path, and the dynamic type of a Policy must
// be comparable (use a pointer type). A policy may additionally implement
// CheckCompiler to hand the CPU specialized checkers.
type Policy interface {
	// CheckRead authorizes a data read of size bytes at addr by the
	// instruction at ip.
	CheckRead(ip, addr uint32, size int) error
	// CheckWrite authorizes a data write of size bytes at addr.
	CheckWrite(ip, addr uint32, size int) error
	// CheckExec authorizes moving the instruction pointer from the
	// instruction at from to the instruction at to. It is invoked for
	// every retirement, including sequential fall-through, so a policy
	// can enforce "the only way in is a designated entry point".
	CheckExec(from, to uint32) error
}

// CheckCompiler is an optional interface a Policy may implement to supply
// the CPU with specialized access checkers, compiled once at bind time
// (Run/Step entry after the Policy field changes). Any returned function
// may be nil, meaning "always allow" — the CPU then skips that class of
// check entirely, exactly as it does with no policy installed. This is the
// hook internal/pma uses to collapse its per-byte module-range loops into
// straight range compares for the common single-module configuration.
type CheckCompiler interface {
	CompileChecks() (read, write func(ip, addr uint32, size int) error,
		exec func(from, to uint32) error)
}

// TrapHandler services INT instructions (syscalls). The kernel installs
// one; vector is the INT operand. Returning an error faults the CPU.
type TrapHandler interface {
	Trap(c *CPU, vector uint8) error
}

// Decoded-instruction cache geometry: direct-mapped, indexed by the low
// bits of the instruction address. The cache serves the stepping engine
// only (the block tiers keep decoded instructions in their blocks), and
// every stepping process that re-executes code allocates and zeroes the
// table, so it is sized for short runs; larger tables made cold trials
// slower (DESIGN.md, "Cache sizes").
const (
	dcacheBits = 8
	dcacheSize = 1 << dcacheBits
)

// Pre-cache warm-up probe geometry. The decode and block caches cost
// allocation and zeroing — worth it once code re-executes enough to use
// them, pure overhead for a process that runs front to back once or
// repeats a few instructions a few times (kernel.Load-per-execution
// harnesses, reseeded attack trials, wild one-shot fuzz inputs; see
// BenchmarkFullReload). Until an engine's cache exists, each of its
// instructions (a stepping fetch) or dispatches (a block-tier pc)
// counts a visit in a tiny direct-mapped table of recently seen
// addresses, and the visit that would first use the cache trips its
// allocation: the first refetch (warmDecodeVisit) allocates the
// stepping engine's decode table, whose fill it is; the visit that
// builds a pc's first block (warmBlockVisit) allocates the block tiers'
// table in the same dispatch. A cold CPU pays one array store per probe
// and nothing else; collisions merely delay the trip (never prevent
// correctness, since the caches are semantically transparent).
const (
	warmBits = 7
	warmSize = 1 << warmBits
	warmMask = warmSize - 1
	// warmDecodeVisit: the first refetch of an address fills its decode
	// slot, so it allocates the decode table.
	warmDecodeVisit = 2
	// warmBlockVisit is the visit of a pc on which the block tiers build
	// its first block: before the probe counted visits, the probe took
	// two of them (record, then the trip that allocated the table) and
	// the slot's hotness gate blockHeat more, so hot code forms its first
	// block on the same visit it always did.
	warmBlockVisit = 2 + blockHeat
)

// dcEntry is one decode-cache slot. An entry is valid for address a iff
// tag == a, the write stamps of the page(s) the instruction's bytes span
// are unchanged (*w0 == g0, and *w1 == g1 when the instruction crosses a
// page boundary), and in.Size is non-zero (zero Size marks a never-filled
// slot, since no real instruction decodes to zero bytes). Content writes
// that could change code and restores invalidate only the entries
// spanning the touched page (mem.CodeStamp).
type dcEntry struct {
	tag uint32
	w0  *uint64
	g0  uint64
	w1  *uint64 // nil unless the instruction crosses a page boundary
	g1  uint64
	in  isa.Instr
}

// CPU is one SM32 hardware thread. Create with New; the zero value is not
// usable because it has no memory.
type CPU struct {
	Mem *mem.Memory
	Reg [isa.NumRegs]uint32
	IP  uint32
	F   Flags

	// Policy, when non-nil, is consulted on every access (see Policy).
	Policy Policy
	// Coverage, when non-nil, records every branch edge (see coverage.go).
	// Like Policy, a nil Coverage costs the branch path one untaken
	// conditional and the straight-line path nothing.
	Coverage *Coverage
	// Handler services INT instructions.
	Handler TrapHandler

	// Steps counts retired instructions; benchmark tables report
	// countermeasure overheads in this deterministic unit.
	Steps uint64

	// ShadowStack, when true, makes the CPU keep a protected copy of
	// every pushed return address and fault any RET whose target
	// disagrees — return-oriented control-flow hijacks become detected
	// faults instead of silent transfers.
	ShadowStack bool
	shadow      []uint32

	breaks    map[uint32]bool
	state     State
	exitCode  int32
	fault     *Fault
	skipBreak bool

	// BlockStats, when non-nil, counts block-engine activity: builds,
	// cache hits, fallbacks, and where block formation stopped (see
	// block.go). Nil costs the engine nothing on the dispatch path.
	BlockStats *BlockStats

	// TraceStats, when non-nil, counts trace-tier activity: traces
	// formed, superblock dispatches, side exits (see trace.go). Nil
	// costs the dispatch path nothing.
	TraceStats *TraceStats

	// DecodeStats, when non-nil, counts decoded-instruction-cache hits
	// and misses (see telemetry.go). Nil costs fetch one untaken branch.
	DecodeStats *DecodeStats

	// FaultStats, when non-nil, counts faults by kind. The fault path is
	// already cold, so this is free when nil and cheap when not.
	FaultStats *FaultStats

	// Events, when non-nil, receives ring-buffered engine events (block
	// builds and demotions, trace formation and exits, faults). Emission
	// sites are off the per-instruction path: formation, invalidation,
	// and fault handling only.
	Events *telemetry.Ring

	// Prof, when non-nil, samples the sim PC on a deterministic
	// instruction-count clock (see profiler.go). A non-nil profiler
	// pins Run to the stepping engine so profiles are identical
	// no matter which engine tier was requested.
	Prof *Profiler

	// dcache is the stepping engine's decoded-instruction cache,
	// allocated when Step's fetch trips the warm-up probe (a refetched
	// address — see warmTags).
	dcache []dcEntry
	// bcache is the basic-block cache, allocated by the dispatch that
	// builds the first block (a pc's warmBlockVisit-th visit — see
	// warmTags).
	bcache []bcEntry
	// tcache is the trace (superblock) cache, allocated on the first
	// successful trace formation; rec is the armed trace recorder
	// (trace.go).
	tcache []tcEntry
	rec    traceRec
	// warmTags is the pre-cache hotness probe: a direct-mapped table,
	// indexed by pc&warmMask, of recently seen instruction addresses and
	// their visit counts. A slot holds pc&^warmMask | visits, so the
	// count costs no space (it never exceeds warmBlockVisit+1: each
	// engine stops probing at its trip). Consulted by fetch while dcache
	// is nil and by blockFor while bcache is nil.
	warmTags [warmSize]uint32
	// cacheMem remembers which Memory the caches were filled against;
	// swapping c.Mem drops both caches (their page stamps point into the
	// old address space).
	cacheMem *mem.Memory

	// Compiled access checkers: bound from Policy by bindPolicy. nil
	// means "always allow". bound remembers which Policy value the
	// checkers were compiled from, so installing or swapping a policy
	// between steps takes effect on the next instruction.
	chkRead  func(ip, addr uint32, size int) error
	chkWrite func(ip, addr uint32, size int) error
	chkExec  func(from, to uint32) error
	bound    Policy
	// blockCheck is the block-span summarizer, bound when the Policy also
	// implements BlockCheckCompiler; nil otherwise (then a non-nil Policy
	// proves no span, and every block runs checked — see spanCheck).
	blockCheck func(start, end uint32) (dataFree, ok bool)
	// polEpoch increments on every rebind, invalidating cached per-block
	// policy summaries.
	polEpoch uint32
	// noDataChk suppresses the per-access data checkers while the block
	// engine executes a span the policy proved data-free.
	noDataChk bool
}

// ensureBound recompiles the access checkers if the Policy field changed
// since they were last bound, and drops the decode and block caches if
// the Memory was swapped out from under them. It is called at the CPU's
// public entry points (Step, Run, Push, Pop) and once per dispatched
// block — never on the per-access path.
func (c *CPU) ensureBound() {
	if c.Policy != c.bound {
		c.bindPolicy()
	}
	if c.Mem != c.cacheMem {
		c.dcache, c.bcache, c.tcache = nil, nil, nil
		c.rec.active = false
		// The warm-up probe holds addresses from the old address space;
		// a stale hit would allocate the caches on a fresh one-shot
		// run's very first fetch, defeating the lazy-allocation gate.
		c.warmTags = [warmSize]uint32{}
		c.cacheMem = c.Mem
	}
}

// ResetCaches drops the decode, block, and trace caches along with the
// warm-up probe and any in-flight trace recording, returning the CPU's
// execution-cache state to exactly what a freshly constructed CPU holds.
// Snapshot/Restore deliberately leaves these caches alone (they are
// semantically transparent), but instrumented runs count their hit/miss
// traffic: a harness warm worker that replays trials on a restored
// process calls ResetCaches before attaching instruments so the
// telemetry it collects is byte-identical to a cold fresh load.
func (c *CPU) ResetCaches() {
	c.dcache, c.bcache, c.tcache = nil, nil, nil
	c.rec.active = false
	c.warmTags = [warmSize]uint32{}
	c.cacheMem = c.Mem
}

func (c *CPU) bindPolicy() {
	c.bound = c.Policy
	c.polEpoch++ // cached per-block policy summaries are for the old policy
	c.noDataChk = false
	c.blockCheck = nil
	if c.Policy == nil {
		c.chkRead, c.chkWrite, c.chkExec = nil, nil, nil
		return
	}
	if bc, ok := c.Policy.(BlockCheckCompiler); ok {
		c.blockCheck = bc.CompileBlockCheck
	}
	if cc, ok := c.Policy.(CheckCompiler); ok {
		c.chkRead, c.chkWrite, c.chkExec = cc.CompileChecks()
		return
	}
	c.chkRead = c.Policy.CheckRead
	c.chkWrite = c.Policy.CheckWrite
	c.chkExec = c.Policy.CheckExec
}

// New returns a CPU attached to m, in the Running state with zeroed
// registers.
func New(m *mem.Memory) *CPU {
	return &CPU{Mem: m, state: Running}
}

// StateOf returns the current execution state.
func (c *CPU) StateOf() State { return c.state }

// ExitCode returns the code passed to Exit; meaningful when StateOf is
// Exited.
func (c *CPU) ExitCode() int32 { return c.exitCode }

// Fault returns the fault that stopped execution, or nil.
func (c *CPU) Fault() *Fault { return c.fault }

// Exit stops execution with the given code. Trap handlers call this to
// implement the exit syscall.
func (c *CPU) Exit(code int32) {
	c.state = Exited
	c.exitCode = code
}

// SetBreak arms (or disarms) a breakpoint at addr. Run pauses with state
// Paused when the instruction pointer reaches an armed address, before the
// instruction executes — this is how the Figure 1 run-time snapshot is
// taken "at the point where it has just entered the get_request function".
func (c *CPU) SetBreak(addr uint32, on bool) {
	if c.breaks == nil {
		c.breaks = make(map[uint32]bool)
	}
	if on {
		c.breaks[addr] = true
	} else {
		delete(c.breaks, addr)
	}
}

// Resume continues from a Paused state, executing the instruction under the
// breakpoint.
func (c *CPU) Resume() {
	if c.state == Paused {
		c.state = Running
		c.skipBreak = true
	}
}

func (c *CPU) setFault(kind FaultKind, ip uint32, err error) {
	c.state = Faulted
	c.fault = &Fault{Kind: kind, IP: ip, Err: err}
	if c.FaultStats != nil {
		c.FaultStats.Kinds[kind]++
	}
	if c.Events != nil {
		c.Events.Emit(faultEventNames[kind], ip, 0)
	}
}

func (c *CPU) readMem(addr uint32, size int) (uint32, bool) {
	if c.chkRead != nil && !c.noDataChk {
		if err := c.chkRead(c.IP, addr, size); err != nil {
			c.setFault(FaultPolicy, c.IP, err)
			return 0, false
		}
	}
	var v uint32
	var err error
	if size == 1 {
		var b byte
		b, err = c.Mem.Read8(addr)
		v = uint32(b)
	} else {
		v, err = c.Mem.Read32(addr)
	}
	if err != nil {
		c.setFault(FaultMemory, c.IP, err)
		return 0, false
	}
	return v, true
}

func (c *CPU) writeMem(addr uint32, v uint32, size int) bool {
	if c.chkWrite != nil && !c.noDataChk {
		if err := c.chkWrite(c.IP, addr, size); err != nil {
			c.setFault(FaultPolicy, c.IP, err)
			return false
		}
	}
	var err error
	if size == 1 {
		err = c.Mem.Write8(addr, byte(v))
	} else {
		err = c.Mem.Write32(addr, v)
	}
	if err != nil {
		c.setFault(FaultMemory, c.IP, err)
		return false
	}
	return true
}

// push pushes v on the stack (ESP -= 4, then store). The execution
// engines call it with the policy already bound.
func (c *CPU) push(v uint32) bool {
	c.Reg[isa.ESP] -= 4
	return c.writeMem(c.Reg[isa.ESP], v, 4)
}

// pop pops the top of stack.
func (c *CPU) pop() (uint32, bool) {
	v, ok := c.readMem(c.Reg[isa.ESP], 4)
	if !ok {
		return 0, false
	}
	c.Reg[isa.ESP] += 4
	return v, true
}

// fetch returns the decoded instruction at IP for Step, consulting the
// decode cache once an address's second fetch (warmDecodeVisit) has
// allocated it; the block tiers decode through their blocks and, for a
// pc they step, through fetchSlow. A hit requires the entry's page write
// stamps to be current, so any event that could have changed the bytes
// at IP since the fill forces a fresh fetch — the cache can never serve
// stale bytes to self-modifying code, code injection, or a fetch after a
// restore.
func (c *CPU) fetch() (isa.Instr, bool) {
	if c.dcache == nil {
		if c.warm(c.IP) < warmDecodeVisit {
			if c.DecodeStats != nil {
				c.DecodeStats.Misses++
			}
			return c.fetchSlow()
		}
		c.dcache = make([]dcEntry, dcacheSize)
	}
	e := &c.dcache[c.IP&(dcacheSize-1)]
	if e.tag == c.IP && e.in.Size != 0 &&
		*e.w0 == e.g0 && (e.w1 == nil || *e.w1 == e.g1) {
		if c.DecodeStats != nil {
			c.DecodeStats.Hits++
		}
		return e.in, true
	}
	if c.DecodeStats != nil {
		c.DecodeStats.Misses++
	}
	in, ok := c.fetchSlow()
	if ok {
		*e = dcEntry{tag: c.IP, in: in}
		e.w0, e.g0 = c.Mem.CodeStamp(c.IP)
		if last := c.IP + uint32(in.Size) - 1; last/mem.PageSize != c.IP/mem.PageSize {
			e.w1, e.g1 = c.Mem.CodeStamp(last)
		}
	}
	return in, ok
}

// warm counts a visit of pc in the pre-cache hotness table and returns
// the visits it holds for pc, this one included: the proof of
// re-execution that makes cache allocation worth paying. A pc that
// finds its slot taken by another address claims it with one visit.
func (c *CPU) warm(pc uint32) uint32 {
	e := &c.warmTags[pc&warmMask]
	if *e&^warmMask != pc&^warmMask {
		*e = pc &^ warmMask
	}
	*e++
	return *e & warmMask
}

// CacheFootprint reports whether the decoded-instruction and basic-block
// caches have been allocated — the observable the lazy-allocation guard
// (bench_test.go's full-reload benchmark) pins: a process that never
// re-executes an address must never pay for either cache, a block-tier
// process that builds no block pays for none, and any other pays only
// for the cache of the engine that ran it.
func (c *CPU) CacheFootprint() (decodeCache, blockCache bool) {
	return c.dcache != nil, c.bcache != nil
}

// fetchSlow reads and decodes the instruction at IP from memory, with a
// per-byte X permission check, converting failures into CPU faults.
func (c *CPU) fetchSlow() (isa.Instr, bool) {
	in, err := c.decodeAt(c.IP)
	if err != nil {
		if _, isDecode := err.(*isa.DecodeErr); isDecode {
			c.setFault(FaultDecode, c.IP, err)
		} else {
			c.setFault(FaultMemory, c.IP, err)
		}
		return isa.Instr{}, false
	}
	return in, true
}

// decodeAt reads and decodes the instruction at pc with per-byte X
// permission checks, reporting failures as errors (a *isa.DecodeErr or
// the underlying memory fault) without touching CPU fault state — the
// block builder probes ahead with it.
func (c *CPU) decodeAt(pc uint32) (isa.Instr, error) {
	b0, err := c.Mem.Fetch8(pc)
	if err != nil {
		return isa.Instr{}, err
	}
	n, ok := isa.LenFromOpcode(b0)
	if !ok {
		return isa.Instr{}, &isa.DecodeErr{Addr: pc, Opcode: b0}
	}
	var buf [6]byte
	buf[0] = b0
	for i := 1; i < n; i++ {
		bi, err := c.Mem.Fetch8(pc + uint32(i))
		if err != nil {
			return isa.Instr{}, err
		}
		buf[i] = bi
	}
	return isa.Decode(buf[:n], pc)
}

// setArith updates flags for an addition result.
func (c *CPU) setAdd(a, b, r uint32) {
	// Branchless overflow: the sign of r differs from the (equal) signs
	// of both a and b exactly when bit 31 of (a^r)&(b^r) is set. One
	// whole-struct store keeps the four flag writes a single word store
	// on the per-instruction fast path.
	c.F = Flags{
		Z: r == 0,
		S: int32(r) < 0,
		C: r < a,
		O: ((a^r)&(b^r))>>31 != 0,
	}
}

// setSub updates flags for a-b.
func (c *CPU) setSub(a, b, r uint32) {
	c.F = Flags{
		Z: r == 0,
		S: int32(r) < 0,
		C: a < b,
		O: ((a^b)&(a^r))>>31 != 0,
	}
}

// setLogic updates flags for a bitwise result.
func (c *CPU) setLogic(r uint32) {
	c.F = Flags{Z: r == 0, S: int32(r) < 0}
}

// transfer moves the instruction pointer to target, consulting the policy.
func (c *CPU) transfer(from, to uint32) bool {
	if c.chkExec != nil {
		if err := c.chkExec(from, to); err != nil {
			c.setFault(FaultPolicy, from, err)
			return false
		}
	}
	c.IP = to
	return true
}

// branch is transfer for control-flow instructions (CALL/RET/JMP and
// conditional jumps, both outcomes): the edge is recorded in the
// installed Coverage map before the policy sees the transfer, so even a
// policy-denied target counts as an explored edge.
func (c *CPU) branch(from, to uint32) bool {
	if c.Coverage != nil {
		c.Coverage.Edge(from, to)
	}
	return c.transfer(from, to)
}

// execKind classifies how exec1 left the machine.
type execKind uint8

const (
	// execSeq: the instruction completed and falls through sequentially;
	// the caller owns the retirement (count the step, move IP to next,
	// with or without a policy exec check).
	execSeq execKind = iota
	// execBranch: the instruction completed via an explicit control
	// transfer (branch or trap return): Steps counted, IP updated or a
	// policy fault recorded. The caller consults c.state.
	execBranch
	// execStop: execution stopped inside the instruction — a fault, HLT,
	// TRAP, or a trap handler ending the run.
	execStop
)

// Step executes one instruction through the single-step reference
// engine. It returns true while the CPU remains Running. The block
// engine (block.go) must stay bit-identical to a Step loop; both drive
// the same exec1 core, and Step remains the semantic definition of one
// retirement: fetch, trace, execute, then a policy-checked sequential
// transfer for fall-through instructions.
func (c *CPU) Step() bool {
	if c.state != Running {
		return false
	}
	if len(c.breaks) != 0 && !c.skipBreak && c.breaks[c.IP] {
		c.state = Paused
		return false
	}
	c.skipBreak = false
	c.ensureBound()

	in, ok := c.fetch()
	if !ok {
		return false
	}
	if c.Prof != nil {
		c.Prof.observe(c.IP)
	}

	ip := c.IP
	next := ip + uint32(in.Size)
	k := c.exec1(in, ip, next)
	if c.Prof != nil && c.state == Running {
		// After a successful branch c.IP is the transfer target, which
		// for CALL/CALLR is exactly the callee entry track wants.
		c.Prof.track(in.Op, c.IP)
	}
	switch k {
	case execSeq:
		c.Steps++
		return c.transfer(ip, next)
	case execBranch:
		return c.state == Running
	default:
		return false
	}
}

// exec1 executes one decoded instruction located at ip (which must equal
// c.IP) whose sequential successor is next. It is the shared execution
// core of both the stepping and the block engine; the returned execKind
// tells the caller whether it still owes the sequential retirement.
func (c *CPU) exec1(in isa.Instr, ip, next uint32) execKind {
	r := &c.Reg

	switch in.Op {
	case isa.NOP:
	case isa.HLT:
		c.Steps++
		c.state = Halted
		return execStop
	case isa.TRAP:
		c.Steps++
		c.setFault(FaultTrap, ip, nil)
		return execStop
	case isa.PUSH:
		if !c.push(r[in.Rd]) {
			return execStop
		}
	case isa.PUSHI:
		if !c.push(in.Imm) {
			return execStop
		}
	case isa.POP:
		v, ok := c.pop()
		if !ok {
			return execStop
		}
		r[in.Rd] = v
	case isa.MOVI:
		r[in.Rd] = in.Imm
	case isa.MOV:
		r[in.Rd] = r[in.Rs]
	case isa.ADD:
		a, b := r[in.Rd], r[in.Rs]
		r[in.Rd] = a + b
		c.setAdd(a, b, r[in.Rd])
	case isa.ADDI:
		a := r[in.Rd]
		r[in.Rd] = a + in.Imm
		c.setAdd(a, in.Imm, r[in.Rd])
	case isa.SUB:
		a, b := r[in.Rd], r[in.Rs]
		r[in.Rd] = a - b
		c.setSub(a, b, r[in.Rd])
	case isa.SUBI:
		a := r[in.Rd]
		r[in.Rd] = a - in.Imm
		c.setSub(a, in.Imm, r[in.Rd])
	case isa.CMP:
		c.setSub(r[in.Rd], r[in.Rs], r[in.Rd]-r[in.Rs])
	case isa.CMPI:
		c.setSub(r[in.Rd], in.Imm, r[in.Rd]-in.Imm)
	case isa.TEST:
		c.setLogic(r[in.Rd] & r[in.Rs])
	case isa.AND:
		r[in.Rd] &= r[in.Rs]
		c.setLogic(r[in.Rd])
	case isa.ANDI:
		r[in.Rd] &= in.Imm
		c.setLogic(r[in.Rd])
	case isa.OR:
		r[in.Rd] |= r[in.Rs]
		c.setLogic(r[in.Rd])
	case isa.ORI:
		r[in.Rd] |= in.Imm
		c.setLogic(r[in.Rd])
	case isa.XOR:
		r[in.Rd] ^= r[in.Rs]
		c.setLogic(r[in.Rd])
	case isa.XORI:
		r[in.Rd] ^= in.Imm
		c.setLogic(r[in.Rd])
	case isa.IMUL:
		r[in.Rd] = uint32(int32(r[in.Rd]) * int32(r[in.Rs]))
		c.setLogic(r[in.Rd])
	case isa.IDIV:
		if r[in.Rs] == 0 {
			c.Steps++
			c.setFault(FaultDivide, ip, nil)
			return execStop
		}
		// INT_MIN / -1 overflows; SM32 defines it as wrapping (returning
		// INT_MIN), unlike x86's #DE — and unlike Go, which would panic.
		if r[in.Rd] == 0x80000000 && r[in.Rs] == 0xFFFFFFFF {
			r[in.Rd] = 0x80000000
		} else {
			r[in.Rd] = uint32(int32(r[in.Rd]) / int32(r[in.Rs]))
		}
		c.setLogic(r[in.Rd])
	case isa.IMOD:
		if r[in.Rs] == 0 {
			c.Steps++
			c.setFault(FaultDivide, ip, nil)
			return execStop
		}
		if r[in.Rd] == 0x80000000 && r[in.Rs] == 0xFFFFFFFF {
			r[in.Rd] = 0
		} else {
			r[in.Rd] = uint32(int32(r[in.Rd]) % int32(r[in.Rs]))
		}
		c.setLogic(r[in.Rd])
	case isa.SHL:
		r[in.Rd] <<= r[in.Rs] & 31
		c.setLogic(r[in.Rd])
	case isa.SHR:
		r[in.Rd] >>= r[in.Rs] & 31
		c.setLogic(r[in.Rd])
	case isa.SAR:
		r[in.Rd] = uint32(int32(r[in.Rd]) >> (r[in.Rs] & 31))
		c.setLogic(r[in.Rd])
	case isa.NEG:
		a := r[in.Rd]
		r[in.Rd] = -a
		c.setSub(0, a, r[in.Rd])
	case isa.NOT:
		r[in.Rd] = ^r[in.Rd]
	case isa.LEA:
		r[in.Rd] = r[in.Rs] + in.Imm
	case isa.LOADW:
		v, ok := c.readMem(r[in.Rs]+in.Imm, 4)
		if !ok {
			return execStop
		}
		r[in.Rd] = v
	case isa.LOADB:
		v, ok := c.readMem(r[in.Rs]+in.Imm, 1)
		if !ok {
			return execStop
		}
		r[in.Rd] = v
	case isa.STOREW:
		if !c.writeMem(r[in.Rd]+in.Imm, r[in.Rs], 4) {
			return execStop
		}
	case isa.STOREB:
		if !c.writeMem(r[in.Rd]+in.Imm, r[in.Rs], 1) {
			return execStop
		}
	case isa.LEAVE:
		// esp = ebp; pop ebp — deallocates the activation record.
		r[isa.ESP] = r[isa.EBP]
		v, ok := c.pop()
		if !ok {
			return execStop
		}
		r[isa.EBP] = v
	case isa.CALL:
		if !c.push(next) {
			return execStop
		}
		if c.ShadowStack {
			c.shadow = append(c.shadow, next)
		}
		c.Steps++
		c.branch(ip, next+in.Imm)
		return execBranch
	case isa.CALLR:
		if !c.push(next) {
			return execStop
		}
		if c.ShadowStack {
			c.shadow = append(c.shadow, next)
		}
		c.Steps++
		c.branch(ip, r[in.Rd])
		return execBranch
	case isa.RET:
		// Pops whatever word is on top of the stack into the
		// instruction pointer — the mechanism stack smashing abuses.
		v, ok := c.pop()
		if !ok {
			return execStop
		}
		c.Steps++
		if c.ShadowStack {
			if len(c.shadow) == 0 {
				c.setFault(FaultCFI, ip, fmt.Errorf("ret with empty shadow stack"))
				return execStop
			}
			want := c.shadow[len(c.shadow)-1]
			c.shadow = c.shadow[:len(c.shadow)-1]
			if v != want {
				c.setFault(FaultCFI, ip, fmt.Errorf(
					"return address 0x%08x does not match shadow copy 0x%08x", v, want))
				return execStop
			}
		}
		c.branch(ip, v)
		return execBranch
	case isa.JMP:
		c.Steps++
		c.branch(ip, next+in.Imm)
		return execBranch
	case isa.JMPR:
		c.Steps++
		c.branch(ip, r[in.Rd])
		return execBranch
	case isa.JZ, isa.JNZ, isa.JL, isa.JG, isa.JLE, isa.JGE, isa.JB, isa.JA,
		isa.JAE, isa.JBE:
		c.Steps++
		if c.cond(in.Op) {
			c.branch(ip, next+in.Imm)
		} else {
			c.branch(ip, next)
		}
		return execBranch
	case isa.INT:
		c.Steps++
		if in.Imm == 0x29 {
			// Fail-fast: defensive checks (canaries, secure-
			// compilation guards) abort here.
			c.setFault(FaultFailFast, ip, nil)
			return execStop
		}
		if c.Handler == nil {
			c.setFault(FaultNoHandler, ip, nil)
			return execStop
		}
		if err := c.Handler.Trap(c, uint8(in.Imm)); err != nil {
			c.setFault(FaultTrap, ip, err)
			return execStop
		}
		if c.state != Running {
			return execStop
		}
		c.transfer(ip, next)
		return execBranch
	default:
		c.setFault(FaultDecode, ip, fmt.Errorf("unimplemented op %v", in.Op))
		return execStop
	}
	return execSeq
}

func (c *CPU) cond(op isa.Op) bool {
	f := c.F
	switch op {
	case isa.JZ:
		return f.Z
	case isa.JNZ:
		return !f.Z
	case isa.JL:
		return f.S != f.O
	case isa.JG:
		return !f.Z && f.S == f.O
	case isa.JLE:
		return f.Z || f.S != f.O
	case isa.JGE:
		return f.S == f.O
	case isa.JB:
		return f.C
	case isa.JA:
		return !f.C && !f.Z
	case isa.JAE:
		return !f.C
	case isa.JBE:
		return f.C || f.Z
	}
	return false
}

// Run executes until the CPU leaves the Running state or maxSteps
// instructions retire, and returns the final state. Whenever the machine
// configuration allows it — the block engine is enabled, no profiler
// is observing, no breakpoints are armed — execution proceeds
// basic-block-at-a-time through the block cache (block.go), and with
// UseTraceEngine also set, superblock-at-a-time through the trace cache
// (trace.go); otherwise Run uses the single-step reference engine. A
// block whose span the Policy does not prove runs under the stepping
// engine's per-instruction checks. All tiers are bit-identical,
// including the StepLimit point: a block or trace member that would
// exceed the budget partially retires and stops exactly at maxSteps.
//
// The policy checkers are (re)bound once at entry and once per
// dispatched block; Step rebinds only if the Policy field changes
// mid-run (e.g. a trap handler installing a PMA).
func (c *CPU) Run(maxSteps uint64) State {
	c.ensureBound()
	budget := c.Steps + maxSteps
	for c.state == Running {
		if c.Steps >= budget {
			c.state = StepLimit
			break
		}
		if UseBlockEngine && c.Prof == nil && len(c.breaks) == 0 {
			if UseTraceEngine {
				c.traceStep(budget)
			} else {
				c.blockStep(budget)
			}
		} else {
			// Observed or breakpointed execution steps; any armed trace
			// recording no longer sees every dispatch, so drop it.
			c.rec.active = false
			c.Step()
		}
	}
	return c.state
}
