package cpu

// The deterministic guest profiler.
//
// A wall-clock profiler of the *simulator* answers "where does the host
// spend time"; this one answers the guest-side question — "where does
// the victim program spend its instructions" — in a unit that is exact
// and reproducible: the sim PC is sampled every Interval observed
// instructions, so two runs of the same workload produce byte-identical
// profiles, at any harness parallelism.
//
// Engine independence is structural, not accidental: installing a
// Profiler removes the block/trace dispatch from Run's engine selection
// (exactly like an armed breakpoint), so a profiled run always executes
// through the single-step reference engine — the tier the other two are
// bit-identical to. There is no way for profiles to differ across
// -engine flags because the profiled machine never runs anything else.
//
// Call-stack attribution tracks CALL/CALLR/RET transfers: the entry
// address of every active function is kept on a shadow chain, and each
// sample records (chain, pc). The chain is maintained from observed
// retirements only — a victim that corrupts its return addresses (this
// is a memory-safety-attack simulator, after all) simply produces
// truncated or reseated chains, mirroring what a real sampling profiler
// reconstructs from a smashed stack. Samples aggregate in place, keyed
// by the packed chain, so memory is bounded by distinct stacks rather
// than by sample count.

import (
	"sort"

	"softsec/internal/isa"
)

// Profiler samples the sim PC every Interval observed instructions when
// installed on a CPU (see CPU.Prof). Not safe for concurrent use: one
// trial, one goroutine, one Profiler.
type Profiler struct {
	// Interval is the sampling period in observed instructions (>= 1).
	Interval uint64

	// count is the profiler's own monotonic instruction counter. It is
	// deliberately not CPU.Steps: architectural snapshot restores roll
	// Steps backward between fuzz executions, and the sampling clock must
	// only ever move forward.
	count uint64
	// stack holds the entry addresses of the active call chain.
	stack []uint32
	// counts aggregates samples keyed by the packed (stack, pc) chain.
	counts map[string]uint64
}

// NewProfiler returns a profiler sampling every interval instructions
// (minimum 1).
func NewProfiler(interval uint64) *Profiler {
	if interval < 1 {
		interval = 1
	}
	return &Profiler{Interval: interval, counts: make(map[string]uint64)}
}

// observe is called by Step once per fetched instruction, before
// execution: pc is about to execute as observed instruction count+1.
func (p *Profiler) observe(pc uint32) {
	p.count++
	if p.count%p.Interval != 0 {
		return
	}
	b := make([]byte, 0, 4*(len(p.stack)+1))
	for _, a := range p.stack {
		b = append(b, byte(a), byte(a>>8), byte(a>>16), byte(a>>24))
	}
	b = append(b, byte(pc), byte(pc>>8), byte(pc>>16), byte(pc>>24))
	p.counts[string(b)]++
}

// track is called by Step after a successful execution to maintain the
// call chain: calls push their target (the callee entry), returns pop.
// Underflow (returning past the chain root, or a hijacked RET with no
// matching CALL) is ignored — the chain root simply becomes the new
// frame's context.
func (p *Profiler) track(op isa.Op, target uint32) {
	switch op {
	case isa.CALL, isa.CALLR:
		p.stack = append(p.stack, target)
	case isa.RET:
		if n := len(p.stack); n > 0 {
			p.stack = p.stack[:n-1]
		}
	}
}

// OnRestore resets the call chain to the snapshot-time state. The
// kernel calls it on every process restore: snapshots are armed before
// the victim runs (call depth zero), and the post-restore machine is
// back at that point while the profiler's chain still reflects wherever
// the previous execution died.
func (p *Profiler) OnRestore() {
	p.stack = p.stack[:0]
}

// Observed returns the total instructions the profiler has observed.
func (p *Profiler) Observed() uint64 { return p.count }

// Samples returns the total samples taken.
func (p *Profiler) Samples() uint64 {
	var n uint64
	for _, v := range p.counts {
		n += v
	}
	return n
}

// Visit calls fn for every distinct sampled chain in deterministic
// (byte-sorted key) order. chain holds the call-stack entry addresses
// outermost first, with the sampled pc as the final element; the slice
// is only valid for the duration of the call.
func (p *Profiler) Visit(fn func(chain []uint32, count uint64)) {
	keys := make([]string, 0, len(p.counts))
	for k := range p.counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var chain []uint32
	for _, k := range keys {
		chain = chain[:0]
		for i := 0; i+4 <= len(k); i += 4 {
			chain = append(chain, uint32(k[i])|uint32(k[i+1])<<8|
				uint32(k[i+2])<<16|uint32(k[i+3])<<24)
		}
		fn(chain, p.counts[k])
	}
}
