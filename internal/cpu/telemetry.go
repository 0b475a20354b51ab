package cpu

// Telemetry publication for the execution tiers.
//
// Every stat struct the CPU can carry (DecodeStats, FaultStats,
// BlockStats, TraceStats) follows the same contract as the Policy and
// Coverage hooks: a nil field costs the hot path one untaken branch,
// and installing a fresh struct starts a clean epoch — trials that want
// isolated metrics attach fresh structs instead of trusting a shared
// one to have been zeroed. Publish maps each struct onto namespaced
// registry counters.

import "softsec/internal/telemetry"

// DecodeStats counts decoded-instruction-cache activity when installed
// on a CPU. Only the stepping engine fetches through the cache, and
// there every retired instruction is exactly one fetch, so for a run
// that halts cleanly Hits+Misses reconciles with the retired-step count
// — the identity the telemetry tests pin. The block tiers count
// nothing here.
type DecodeStats struct {
	Hits   uint64 // decode-cache hits
	Misses uint64 // decode-cache misses (slow fetch+decode path)
}

// numFaultKinds sizes FaultStats.Kinds; FaultCFI is the last kind.
const numFaultKinds = int(FaultCFI) + 1

// FaultStats counts faults by kind when installed on a CPU. Policy-
// check refusals are Kinds[FaultPolicy].
type FaultStats struct {
	Kinds [numFaultKinds]uint64
}

// Publish adds the decode-cache counters to s.
func (st *DecodeStats) Publish(s *telemetry.Snap) {
	s.Count("cpu.decode.hits", st.Hits)
	s.Count("cpu.decode.misses", st.Misses)
}

// Publish adds one counter per fault kind seen to s.
func (st *FaultStats) Publish(s *telemetry.Snap) {
	for k, n := range st.Kinds {
		s.Count("cpu.fault."+FaultKind(k).String(), n)
	}
}

// Publish adds the block-engine counters and histograms to s.
func (st *BlockStats) Publish(s *telemetry.Snap) {
	s.Count("cpu.block.builds", st.Builds)
	s.Count("cpu.block.hits", st.Hits)
	s.Count("cpu.block.dispatches", st.Dispatches)
	s.Count("cpu.block.checked", st.Checked)
	s.Count("cpu.block.stepfalls", st.StepFalls)
	s.Count("cpu.block.stales", st.Stales)
	s.Count("cpu.block.selfstales", st.SelfStales)
	for l, n := range st.LenHist {
		s.BucketInt("cpu.block.len", l, n)
	}
	for r, n := range st.StopHist {
		s.Bucket("cpu.block.stop", StopReason(r).String(), n)
	}
}

// Publish adds the trace-engine counters and histograms to s.
func (st *TraceStats) Publish(s *telemetry.Snap) {
	s.Count("cpu.trace.formed", st.Formed)
	s.Count("cpu.trace.aborts", st.Aborts)
	s.Count("cpu.trace.dispatches", st.Dispatches)
	s.Count("cpu.trace.completions", st.Completions)
	s.Count("cpu.trace.loopbacks", st.LoopBacks)
	s.Count("cpu.trace.side_exits", st.SideExits)
	s.Count("cpu.trace.stale_exits", st.StaleExits)
	s.Count("cpu.trace.member_instrs", st.MemberInstrs)
	for l, n := range st.LenHist {
		s.BucketInt("cpu.trace.len", l, n)
	}
}

// faultEventNames precomputes ring event names per fault kind so the
// (cold) fault path does not concatenate strings.
var faultEventNames = func() [numFaultKinds]string {
	var a [numFaultKinds]string
	for k := range a {
		a[k] = "fault." + FaultKind(k).String()
	}
	return a
}()
