package cpu

// The trace (superblock) execution tier.
//
// The block engine executes one basic block per dispatch: every block
// boundary returns to the Run loop and pays the cache probe, the budget
// computation and the policy-summary lookup again — even when the same
// block chain has run a million times. This tier lifts the same idea one
// level: chains of hot blocks are recorded as *traces* (superblocks) and
// dispatched as a unit, with the per-dispatch overheads paid once per
// chain — or, for a trace that closes a loop, once per many iterations.
//
// Recording is observational, in the Next-Executing-Tail style: when a
// built block's dispatch counter crosses traceHot and no trace starts at
// its pc, the recorder arms and simply writes down the entry pc of every
// subsequently dispatched block. The chain seals when it returns to its
// head (a loop trace), reaches MaxTraceBlocks, or runs into a block no
// trace may contain — an INT/HLT/TRAP terminator (INT re-enters the
// kernel, which may remap or rewrite anything), a policy-refused span, a
// stepping fallback. Because recording only watches dispatches that were
// going to happen anyway, a trace that never re-executes costs one pc
// append per block and nothing else.
//
// Execution trusts nothing recorded. A trace is a *prediction* with
// guards: before each member runs, the engine checks that the previous
// member's terminator actually went to the member's entry (the branch-
// direction guard — a miss is a side exit back to the block cache, with
// the machine fully consistent, mid-chain) and that the member's page
// write stamps are current (the invalidation guard). Instructions are
// executed by the same exec1 core as the stepping and block engines, so
// bit-identity is structural: a trace never speculates, never reorders,
// and records coverage edges at exactly the terminators the stepping
// engine would. The step budget is enforced per member with the same
// partial-retirement rule as blocks, so StepLimit fires at exactly the
// same instruction.
//
// Invalidation mirrors blocks exactly: a trace is keyed on (entry pc,
// per-member page write stamps, policy epoch). Self-modifying code,
// raw pokes, snapshot-restore rollbacks and policy rebinds all move
// one of those, killing the trace at its next probe or member boundary.
// Per-member policy span summaries are composed from the same
// BlockCheckCompiler contract blocks use.

import (
	"softsec/internal/isa"
	"softsec/internal/mem"
)

// UseTraceEngine gates the trace tier package-wide (it only applies when
// UseBlockEngine is also set). The differential tests flip it to compare
// tiers; it is not intended to change mid-Run.
var UseTraceEngine = true

// Trace cache geometry and formation limits.
const (
	tcacheBits = 9
	tcacheSize = 1 << tcacheBits
	// MaxTraceBlocks caps the member count of one trace.
	MaxTraceBlocks = 16
	// MinTraceBlocks is the smallest chain worth superblock dispatch —
	// a single block gains nothing over the block engine.
	MinTraceBlocks = 2
	// traceHot is the number of dispatches of a built block before the
	// recorder invests in trace formation at its pc.
	traceHot = 8
)

// TraceStats counts trace-tier activity when installed on a CPU, the
// trace-side analogue of BlockStats. Nil costs the dispatch path nothing.
type TraceStats struct {
	Formed      uint64 // traces recorded and installed in the cache
	Aborts      uint64 // recordings abandoned (too short, unstable, refused)
	Dispatches  uint64 // trace cache hits entering superblock execution
	Completions uint64 // full passes over a trace's member chain
	LoopBacks   uint64 // loop traces re-entering themselves without re-dispatch
	SideExits   uint64 // branch-direction guard misses (exit to block cache)
	StaleExits  uint64 // member stamp guard misses (trace invalidated)
	// MemberInstrs sums len(ins) over all members of formed traces;
	// MemberInstrs/Formed is the mean superblock length in instructions.
	MemberInstrs uint64
	// LenHist histograms formed traces by member count.
	LenHist [MaxTraceBlocks + 1]uint64
}

// AvgLen returns the mean members-per-formed-trace.
func (st *TraceStats) AvgLen() float64 {
	if st.Formed == 0 {
		return 0
	}
	n, sum := uint64(0), uint64(0)
	for l, c := range st.LenHist {
		n += c
		sum += uint64(l) * c
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// SideExitRate returns the fraction of trace dispatches that left
// through a guard miss (branch-direction or staleness).
func (st *TraceStats) SideExitRate() float64 {
	if st.Dispatches == 0 {
		return 0
	}
	return float64(st.SideExits+st.StaleExits) / float64(st.Dispatches)
}

// tmember is one member block of a trace: an owned copy of the decoded
// block plus its policy summary and the write stamps of the page(s) its
// bytes span — the same validity scheme as a bcEntry, per member.
type tmember struct {
	blk      Block
	dataFree bool
	w0       *uint64
	g0       uint64
	w1       *uint64 // nil unless the member's span covers a second page
	g1       uint64
}

// trace is one recorded superblock: a chain of member blocks expected to
// execute back to back, starting at start.
type trace struct {
	start   uint32
	pe      uint32
	members []tmember
}

// tcEntry is one trace-cache slot.
type tcEntry struct {
	tag uint32
	tr  *trace
}

// traceRec is the armed recorder: the chain of block entry pcs observed
// since recording started. It lives on the CPU and is reset by anything
// that breaks the chain.
type traceRec struct {
	active bool
	start  uint32
	pe     uint32
	pcs    []uint32
}

// memberValid reports whether m's page write stamps still describe the
// bytes the member was built from (the policy epoch is trace-wide and
// checked at the cache probe; it cannot move mid-trace because no trace
// contains an INT).
func (c *CPU) memberValid(m *tmember) bool {
	return *m.w0 == m.g0 && (m.w1 == nil || *m.w1 == m.g1)
}

// traceFor returns the valid cached trace starting at pc, or nil. Stale
// traces (policy rebind) are dropped on probe so the slot can re-form
// under the new regime.
func (c *CPU) traceFor(pc uint32) *trace {
	if c.tcache == nil {
		return nil
	}
	e := &c.tcache[pc&(tcacheSize-1)]
	t := e.tr
	if t == nil || e.tag != pc {
		return nil
	}
	if t.pe != c.polEpoch {
		e.tr = nil
		return nil
	}
	return t
}

// traceCached reports whether the cache already holds a trace for pc
// (used to suppress re-recording; traceFor has just dropped any stale
// entry for pc on this dispatch).
func (c *CPU) traceCached(pc uint32) bool {
	if c.tcache == nil {
		return false
	}
	e := &c.tcache[pc&(tcacheSize-1)]
	return e.tag == pc && e.tr != nil
}

// killTrace removes t from the cache: one of its members went stale
// under it (self-modifying code, a rolled-back page). The chain re-forms
// from fresh bytes if it re-heats.
func (c *CPU) killTrace(t *trace) {
	e := &c.tcache[t.start&(tcacheSize-1)]
	if e.tr == t {
		e.tr = nil
	}
	if c.Events != nil {
		c.Events.Emit("trace.kill", t.start, 0)
	}
}

func (c *CPU) statAbort() {
	if st := c.TraceStats; st != nil {
		st.Aborts++
	}
	if c.Events != nil {
		c.Events.Emit("trace.abort", c.rec.start, 0)
	}
}

// statSideExit records one side exit — a trace left mid-chain because a
// branch went the unrecorded way — at the exit pc.
func (c *CPU) statSideExit(pc uint32) {
	if st := c.TraceStats; st != nil {
		st.SideExits++
	}
	if c.Events != nil {
		c.Events.Emit("trace.sideexit", pc, 0)
	}
}

// excludedTraceTerm reports whether b ends in an instruction no trace
// may contain: INT re-enters the kernel (trap handlers may remap,
// rewrite or rebind anything, breaking the trace-wide epoch guarantees),
// HLT and TRAP stop the machine.
func excludedTraceTerm(b *Block) bool {
	if !b.Term || len(b.ins) == 0 {
		return false
	}
	switch b.ins[len(b.ins)-1].Op {
	case isa.INT, isa.HLT, isa.TRAP:
		return true
	}
	return false
}

// traceStep advances the machine by one trace, one basic block, or one
// stepped instruction — the full three-tier dispatch. It assumes
// c.state == Running and c.Steps < budget.
func (c *CPU) traceStep(budget uint64) {
	c.ensureBound()
	pc := c.IP
	if t := c.traceFor(pc); t != nil {
		if c.rec.active {
			// The recorded chain ran into an existing trace head: seal it
			// there, so side-exit paths grow their own traces that hand
			// over to this one.
			c.finishRec()
		}
		c.runTrace(t, budget)
		return
	}
	e := c.blockFor(pc)
	if e == nil || !e.ok {
		// No trace holds a stepped pc or a span the policy did not
		// prove, so either ends the recorded chain.
		c.rec.active = false
		if e == nil {
			c.stepCold()
		} else {
			c.dispatch(e, budget)
		}
		return
	}
	if e.exe != 0xFF {
		e.exe++
	}
	if c.dispatch(e, budget) {
		c.recAfterBlock(pc, e)
	} else {
		c.rec.active = false
	}
}

// recAfterBlock is the recorder hook, called after every full block
// dispatch: it arms on a hot block, extends an armed chain, and seals or
// abandons it at chain-breaking events.
func (c *CPU) recAfterBlock(pc uint32, e *bcEntry) {
	r := &c.rec
	if !r.active {
		if c.state != Running || e.exe < traceHot || len(e.blk.ins) == 0 ||
			excludedTraceTerm(&e.blk) || c.traceCached(pc) {
			return
		}
		r.active = true
		r.start = pc
		r.pe = c.polEpoch
		r.pcs = append(r.pcs[:0], pc)
		return
	}
	if c.polEpoch != r.pe || len(e.blk.ins) == 0 {
		// The world changed under the recording (or the block
		// self-invalidated mid-flight): the chain is not stable.
		r.active = false
		c.statAbort()
		return
	}
	if excludedTraceTerm(&e.blk) {
		// Never chain past INT/HLT/TRAP: seal the trace before this
		// block.
		c.finishRec()
		return
	}
	if c.state != Running {
		// The chain ran into a fault or halt — not hot-loop material.
		r.active = false
		c.statAbort()
		return
	}
	r.pcs = append(r.pcs, pc)
	if c.IP == r.start || len(r.pcs) == MaxTraceBlocks {
		c.finishRec()
	}
}

// finishRec seals the armed recording into a cached trace: each recorded
// pc is (re)decoded into an owned member block, its policy span summary
// is compiled through the same BlockCheckCompiler contract blocks use,
// and its page write stamps are captured. A member the policy refuses
// (or that no longer decodes) truncates the chain there; a chain shorter
// than MinTraceBlocks is abandoned.
func (c *CPU) finishRec() {
	r := &c.rec
	r.active = false
	if len(r.pcs) < MinTraceBlocks || c.polEpoch != r.pe {
		c.statAbort()
		return
	}
	t := &trace{start: r.start, pe: r.pe}
	for _, pc := range r.pcs {
		var b Block
		if !c.buildBlock(pc, &b) || len(b.ins) == 0 || excludedTraceTerm(&b) {
			break
		}
		dataFree, ok := c.spanCheck(b.Start, b.End)
		if !ok {
			break
		}
		m := tmember{blk: b, dataFree: dataFree}
		m.w0, m.g0 = c.Mem.CodeStamp(pc)
		if m.w0 == nil {
			break
		}
		if last := b.End - 1; last/mem.PageSize != pc/mem.PageSize {
			m.w1, m.g1 = c.Mem.CodeStamp(last)
			if m.w1 == nil {
				break
			}
		}
		t.members = append(t.members, m)
	}
	if len(t.members) < MinTraceBlocks {
		c.statAbort()
		return
	}
	if c.tcache == nil {
		c.tcache = make([]tcEntry, tcacheSize)
	}
	s := &c.tcache[t.start&(tcacheSize-1)]
	s.tag = t.start
	s.tr = t
	if st := c.TraceStats; st != nil {
		st.Formed++
		st.LenHist[len(t.members)]++
		for i := range t.members {
			st.MemberInstrs += uint64(len(t.members[i].blk.ins))
		}
	}
	if c.Events != nil {
		c.Events.Emit("trace.form", t.start, uint64(len(t.members)))
	}
}

// runTrace executes t: members back to back, guarded, with internal
// loop-back when the chain closes on its own head.
func (c *CPU) runTrace(t *trace, budget uint64) {
	st := c.TraceStats
	if st != nil {
		st.Dispatches++
	}
	for {
		for mi := range t.members {
			m := &t.members[mi]
			if mi > 0 && c.IP != m.blk.Start {
				c.statSideExit(c.IP)
				return
			}
			// Stores earlier in the chain (or in the previous pass) may
			// have rewritten this member's bytes: revalidate its stamps
			// at the boundary, exactly where the block engine would have
			// re-probed.
			if !c.memberValid(m) {
				c.killTrace(t)
				if st != nil {
					st.StaleExits++
				}
				return
			}
			if !c.runMember(t, m, budget) {
				return
			}
		}
		if st != nil {
			st.Completions++
		}
		if c.IP != t.start || c.Steps >= budget {
			return
		}
		if st != nil {
			st.LoopBacks++
		}
	}
}

// runMember executes one member block through the shared exec1 core,
// with the same partial-retirement and self-modification rules as
// runBlock. It returns true when the member ran to completion with the
// machine still Running, so the dispatch may flow to the next member.
func (c *CPU) runMember(t *trace, m *tmember, budget uint64) bool {
	b := &m.blk
	n := len(b.ins)
	full := true
	if rem := budget - c.Steps; uint64(n) > rem {
		n = int(rem)
		full = false
	}
	if m.dataFree && (c.chkRead != nil || c.chkWrite != nil) {
		c.noDataChk = true
	}
	ip := c.IP
	for i := 0; i < n; i++ {
		in := b.ins[i]
		next := ip + uint32(in.Size)
		if c.exec1(in, ip, next) != execSeq {
			// Control transfer, stop, or fault: exec1 finished the
			// retirement (or recorded the fault) itself. The chain
			// continues only past a terminator that left us Running.
			c.noDataChk = false
			return full && i == n-1 && c.state == Running
		}
		c.Steps++
		c.IP = next
		ip = next
		if b.wmask>>uint(i)&1 == 1 && i+1 < n && !c.memberValid(m) {
			// The store rewrote this member's own bytes: the rest of the
			// cached run must not execute (the stepping engine would see
			// the fresh bytes). Kill the trace and let the Run loop
			// refetch from here.
			c.noDataChk = false
			c.killTrace(t)
			return false
		}
	}
	c.noDataChk = false
	// A fall-through member (page boundary or length cap): sequential
	// flow into the next member, already cleared by this member's span
	// summary.
	return full && c.state == Running
}
