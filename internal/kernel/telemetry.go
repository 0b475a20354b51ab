package kernel

// Instruments bundles every per-trial telemetry hook the stack offers
// and attaches them to one Process. The kernel owns this bridge because
// it is the only layer that sees all the pieces at once: the CPU's stat
// hooks, the address space's stamp counters, and — crucially for
// profile symbolization — the link symbols that turn raw sampled PCs
// into function names.
//
// The attach-fresh contract is what keeps per-trial metrics from
// bleeding across a sweep: AttachInstruments always installs brand-new
// zeroed stat structs (never reusing whatever a previous trial left on
// the CPU), so a snap taken at trial end is exactly that trial's delta.

import (
	"sort"
	"strings"

	"softsec/internal/cpu"
	"softsec/internal/mem"
	"softsec/internal/telemetry"
)

// Instruments holds the hook targets installed on one process for one
// collection epoch.
type Instruments struct {
	Decode cpu.DecodeStats
	Faults cpu.FaultStats
	Block  cpu.BlockStats
	Trace  cpu.TraceStats
	Mem    mem.Stats
	Prof   *cpu.Profiler
	Ring   *telemetry.Ring

	baseSteps uint64
}

// AttachInstruments installs fresh telemetry hooks on p according to
// spec and returns them; a nil spec attaches nothing and returns nil.
// Counters and histograms are always collected when a spec is present;
// the profiler and event ring are opt-in via the spec's flags (the
// profiler pins execution to the stepping engine — see cpu.Profiler).
func AttachInstruments(p *Process, spec *telemetry.Spec) *Instruments {
	if spec == nil {
		return nil
	}
	ins := &Instruments{baseSteps: p.CPU.Steps}
	p.CPU.DecodeStats = &ins.Decode
	p.CPU.FaultStats = &ins.Faults
	p.CPU.BlockStats = &ins.Block
	p.CPU.TraceStats = &ins.Trace
	p.Mem.SetStats(&ins.Mem)
	if spec.Profile {
		ins.Prof = cpu.NewProfiler(telemetry.DefaultProfileInterval)
		p.CPU.Prof = ins.Prof
	}
	if spec.Events {
		ins.Ring = telemetry.NewRing(telemetry.DefaultEventCap)
		p.CPU.Events = ins.Ring
	}
	return ins
}

// SinceAttach returns the instructions p retired since the instruments
// were attached — the right retired-count for a single uninterrupted
// run. Fuzz campaigns must not use it: their CPU counter rolls back
// with every snapshot restore, so they accumulate per-exec deltas
// instead.
func (ins *Instruments) SinceAttach(p *Process) uint64 {
	return p.CPU.Steps - ins.baseSteps
}

// Snap publishes everything the instruments collected into one
// telemetry snapshot. retired is the epoch's retired-instruction total
// (SinceAttach for a single run; the accumulated per-execution sum for
// a fuzz campaign). The profile is folded here, per trial, because
// symbol addresses are layout-dependent (ASLR): merging must happen on
// names, never on raw PCs.
func (ins *Instruments) Snap(p *Process, retired uint64) *telemetry.Snap {
	s := telemetry.NewSnap()
	ins.Decode.Publish(s)
	ins.Faults.Publish(s)
	ins.Block.Publish(s)
	ins.Trace.Publish(s)
	ins.Mem.Publish(s)
	s.Count("cpu.steps.retired", retired)
	if ins.Prof != nil {
		s.AddProfile(FoldProfile(p, ins.Prof))
	}
	if ins.Ring != nil {
		s.Events = ins.Ring.Events()
		s.Dropped = ins.Ring.Dropped()
	}
	return s
}

// FoldProfile symbolizes prof's sampled call chains against p's link
// symbols and returns folded stacks ("main;echo_loop;memcpy" →
// samples), the format flamegraph tooling consumes. Each chain address
// resolves to the global text symbol at the greatest entry address not
// above it; addresses outside the text segment fold as
// "[outside-text]" — under a control-flow hijack that is a real signal,
// not an error. A sampled pc inside the function already on top of the
// chain adds no extra frame.
func FoldProfile(p *Process, prof *cpu.Profiler) map[string]uint64 {
	entries := p.TextEntryPoints()
	addrs := make([]uint32, 0, len(entries))
	for a := range entries {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	tstart, tend := p.TextBounds()
	resolve := func(pc uint32) string {
		if pc < tstart || pc >= tend || len(addrs) == 0 || pc < addrs[0] {
			return "[outside-text]"
		}
		i := sort.Search(len(addrs), func(i int) bool { return addrs[i] > pc }) - 1
		return entries[addrs[i]]
	}

	out := make(map[string]uint64)
	var frames []string
	prof.Visit(func(chain []uint32, count uint64) {
		frames = frames[:0]
		for i, a := range chain {
			name := resolve(a)
			if i == len(chain)-1 && len(frames) > 0 && frames[len(frames)-1] == name {
				continue // leaf pc inside the function already on top
			}
			frames = append(frames, name)
		}
		out[strings.Join(frames, ";")] += count
	})
	return out
}
