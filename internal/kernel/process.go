package kernel

import (
	"bytes"
	"fmt"
	"math/rand"

	"softsec/internal/asm"
	"softsec/internal/cpu"
	"softsec/internal/layout"
	"softsec/internal/mem"
	"softsec/internal/seedrand"
)

// Nominal (non-ASLR) memory layout of the *classic* profile, matching the
// paper's Figure 1 conventions: text at 0x08048000, stack just below
// 0xC0000000 growing down. Kept as named constants for the classic-only
// consumers (figures, examples, isolation modules); profile-aware code
// reads Layout / layout.Profile instead.
const (
	NominalText  = uint32(0x08048000)
	NominalData  = uint32(0x08100000)
	NominalHeap  = uint32(0x08200000)
	NominalStack = uint32(0xBFFF0000) // low end of the stack mapping
	StackSize    = uint32(0x00010000)
	KernelBase   = uint32(0xC0000000)
)

// Layout fixes the base addresses of a process image.
type Layout struct {
	Text      uint32
	Data      uint32
	Heap      uint32
	StackLow  uint32 // lowest mapped stack address
	StackSize uint32 // stack mapping size in bytes
	StackTop  uint32 // initial ESP
}

// NominalLayoutFor is the non-ASLR layout of a machine profile (nil means
// classic): segment bases exactly where the profile's loader contract
// puts them.
func NominalLayoutFor(p *layout.Profile) Layout {
	p = layout.OrClassic(p)
	return Layout{
		Text:      p.Seg.Text,
		Data:      p.Seg.Data,
		Heap:      p.Seg.Heap,
		StackLow:  p.Seg.StackLow,
		StackSize: p.Seg.StackSize,
		StackTop:  p.StackTop(),
	}
}

// RandomizedLayoutFor draws page-aligned base offsets from rng for a
// profile's layout, implementing Address Space Layout Randomization
// (Section III-C1): it makes the addresses an exploit must guess —
// buffer locations, saved return addresses, gadget addresses —
// unpredictable. Draw order is fixed (text, data, heap, stack) so a
// given seed produces the same layout regardless of call-site history;
// the window widths come from the profile.
func RandomizedLayoutFor(rng *rand.Rand, p *layout.Profile) Layout {
	p = layout.OrClassic(p)
	page := func(maxPages int32) uint32 {
		return uint32(rng.Int31n(maxPages)) * mem.PageSize
	}
	l := NominalLayoutFor(p)
	l.Text += page(p.ASLR.TextPages)
	l.Data += page(p.ASLR.DataPages)
	l.Heap += page(p.ASLR.HeapPages)
	delta := page(p.ASLR.StackPages) // the stack moves down
	l.StackLow -= delta
	l.StackTop -= delta
	return l
}

// InputSource supplies the bytes the I/O attacker (or an honest user)
// feeds to the program's read() calls. outputSoFar carries everything the
// program has written so far, which is what makes adaptive attacks — parse
// an info leak, then build the payload — expressible.
type InputSource interface {
	NextInput(max int, outputSoFar []byte) []byte
}

// ScriptInput replays a fixed sequence of chunks, one per read() call.
//
// NextInput consumes the receiver: after a run the script is empty, and
// feeding the same *ScriptInput to a second process replays nothing. Use
// Clone to give each run its own cursor (the loader does this for
// Config.Input automatically).
type ScriptInput [][]byte

// NextInput implements InputSource.
func (s *ScriptInput) NextInput(max int, _ []byte) []byte {
	if len(*s) == 0 {
		return nil
	}
	chunk := (*s)[0]
	*s = (*s)[1:]
	if len(chunk) > max {
		chunk = chunk[:max]
	}
	return chunk
}

// Clone returns an independent replay cursor over the same chunks. The
// chunk contents are shared (NextInput only re-slices, never writes), so
// a clone is cheap even for large payloads.
func (s *ScriptInput) Clone() *ScriptInput {
	cp := make(ScriptInput, len(*s))
	copy(cp, *s)
	return &cp
}

// CloneInput implements the optional cloning contract used by CloneInput.
func (s *ScriptInput) CloneInput() InputSource { return s.Clone() }

// CloneInput returns an independent cursor over src when the source
// supports cloning (ScriptInput does), and src itself otherwise.
// Harnesses that re-run a scenario call this once per trial so a consumed
// script from trial N cannot silently starve trial N+1.
func CloneInput(src InputSource) InputSource {
	if c, ok := src.(interface{ CloneInput() InputSource }); ok {
		return c.CloneInput()
	}
	return src
}

// Config selects which exploit-mitigation countermeasures the platform
// deploys (the paper's Section III-C1) and points at the input script.
type Config struct {
	// DEP enables Data Execution Prevention: text pages are r-x and
	// data/stack pages rw-. When false the loader uses the historical
	// rwx-everywhere layout that direct code injection (and code
	// corruption) exploits.
	DEP bool
	// ASLR randomizes segment bases using ASLRSeed.
	ASLR     bool
	ASLRSeed int64
	// CanarySeed randomizes the stack canary value; zero keeps the
	// well-known default (i.e. a *predictable* canary, for the tables
	// that show why unpredictability matters).
	CanarySeed int64
	// CheckedHeap enables kernel-side validation of read()/write()
	// buffer ranges against the allocation registry (the "run-time
	// checks during testing" of Section III-C2, in the style of
	// AddressSanitizer interceptors).
	CheckedLibc bool
	// ShadowStack enables hardware return-address protection (CET-style
	// CFI) on the CPU.
	ShadowStack bool
	// Input feeds the program's reads. Nil means EOF on first read.
	Input InputSource
	// MaxSteps bounds execution; zero means DefaultMaxSteps.
	MaxSteps uint64
	// MaxHeap caps the heap segment in bytes (RLIMIT_DATA); zero means
	// MaxHeapBytes. Fuzz campaigns set a tight cap so junk executions
	// cannot churn tens of megabytes of pages per run.
	MaxHeap uint32
	// Profile selects the machine layout profile governing segment
	// placement and ASLR windows. Nil means the classic Figure-1 layout.
	// (Frame geometry is the compiler's side of the same profile:
	// minc.Options.Layout.)
	Profile *layout.Profile
	// TraceSyscalls records a line per syscall in Process.SyscallLog.
	TraceSyscalls bool
}

// DefaultMaxSteps bounds program execution in tests and scenarios.
const DefaultMaxSteps = 2_000_000

// DefaultCanary is the canary value used when CanarySeed is zero. It
// contains a NUL byte, like StackGuard's terminator canary.
const DefaultCanary = uint32(0x00AB1DE5)

// CanaryValue returns the stack canary a process loaded with the given
// CanarySeed receives: DefaultCanary for seed zero, otherwise a seeded
// pseudorandom odd value. Exposed so seed-independent cached recon
// results can be fixed up to the per-configuration canary without
// re-running the reconnaissance load.
func CanaryValue(seed int64) uint32 {
	if seed == 0 {
		return DefaultCanary
	}
	return uint32(seedrand.New(seed).Int63()) | 1
}

// Process is a loaded program plus its kernel-side state.
type Process struct {
	CPU    *cpu.CPU
	Mem    *mem.Memory
	Layout Layout
	Linked *Linked
	Config Config

	Output     bytes.Buffer
	SyscallLog []string

	Canary uint32
	brk    uint32

	// allocation registry for CheckedLibc / the checked dialect
	allocs map[uint32]uint32 // addr -> size

	// CopyGuard, when non-nil, is consulted before the kernel copies
	// data into or out of user memory on behalf of a syscall. A
	// Protected Module Architecture installs one: even the kernel cannot
	// touch protected memory.
	CopyGuard func(addr, n uint32, write bool) error
}

// SymbolAddr returns the virtual address of a linked symbol.
func (p *Process) SymbolAddr(name string) (uint32, bool) {
	s, ok := p.Linked.Symbol(name)
	if !ok {
		return 0, false
	}
	return p.SectionBase(s.Section) + s.Off, true
}

// SectionBase returns the loaded base address of a section.
func (p *Process) SectionBase(sec asm.Section) uint32 {
	if sec == asm.SecText {
		return p.Layout.Text
	}
	return p.Layout.Data
}

// TextBounds returns the loaded text segment's absolute address range
// [start, end). Static CFG recovery (internal/cfi) sweeps exactly this
// span: with DEP it coincides with the executable pages, and without DEP
// it keeps the sweep off data pages that are merely *mapped* executable.
func (p *Process) TextBounds() (start, end uint32) {
	return p.Layout.Text, p.Layout.Text + uint32(len(p.Linked.Text))
}

// TextEntryPoints returns the absolute addresses of the program's global
// text symbols, keyed by address (values are symbol names, for
// diagnostics). This is the linker's view of function entries — the seed
// set a CFI label table marks as legitimate indirect-call targets.
// Local text symbols are loop labels and branch targets inside functions,
// not entries, and are deliberately excluded.
func (p *Process) TextEntryPoints() map[uint32]string {
	out := make(map[uint32]string)
	for name, s := range p.Linked.Symbols {
		if s.Section != asm.SecText || !s.Global {
			continue
		}
		addr := p.Layout.Text + s.Off
		// Symbols appear both qualified ("libc.puts") and unqualified
		// ("puts"); keep the shorter, unqualified spelling when both map
		// to one address.
		if prev, ok := out[addr]; !ok || len(name) < len(prev) {
			out[addr] = name
		}
	}
	return out
}

// ModuleBounds returns the absolute address ranges of a linked module.
type ModuleBounds struct {
	Name               string
	TextStart, TextEnd uint32
	DataStart, DataEnd uint32
	Entries            []uint32
}

// Module returns the absolute bounds of module name.
func (p *Process) Module(name string) (ModuleBounds, bool) {
	m, ok := p.Linked.Module(name)
	if !ok {
		return ModuleBounds{}, false
	}
	b := ModuleBounds{
		Name:      name,
		TextStart: p.Layout.Text + m.TextOff,
		TextEnd:   p.Layout.Text + m.TextOff + m.TextSize,
		DataStart: p.Layout.Data + m.DataOff,
		DataEnd:   p.Layout.Data + m.DataOff + m.DataSize,
	}
	for _, e := range m.Entries {
		b.Entries = append(b.Entries, p.Layout.Text+e)
	}
	return b, true
}

func pageCeil(n uint32) uint32 {
	return (n + mem.PageSize - 1) &^ uint32(mem.PageSize-1)
}

// layoutFits reports whether the drawn bases keep the segments disjoint:
// text below data, data below heap. (The stack lives gigabytes above all
// three; its randomization window cannot collide.)
func layoutFits(l Layout, ld *Linked) bool {
	textEnd := l.Text + pageCeil(uint32(len(ld.Text))+1)
	dataEnd := l.Data + pageCeil(uint32(len(ld.Data))+1)
	return textEnd <= l.Data && dataEnd <= l.Heap
}

// Load builds a runnable process from a linked program. The input source
// is cloned when it supports cloning, so the caller's script survives the
// run and can seed further processes.
func Load(ld *Linked, cfg Config) (*Process, error) {
	cfg.Input = CloneInput(cfg.Input)
	layout := NominalLayoutFor(cfg.Profile)
	if cfg.ASLR {
		// Like a real kernel, redraw until the randomized bases do not
		// collide. The rng is seeded from ASLRSeed, so the accepted
		// layout — including any redraws — is deterministic per seed.
		rng := seedrand.New(cfg.ASLRSeed)
		layout = RandomizedLayoutFor(rng, cfg.Profile)
		for i := 0; i < 64 && !layoutFits(layout, ld); i++ {
			layout = RandomizedLayoutFor(rng, cfg.Profile)
		}
	}
	m := mem.New()

	textPerm, dataPerm := mem.RX, mem.RW
	if !cfg.DEP {
		// Historical layout: everything readable, writable, executable.
		textPerm = mem.RWX
		dataPerm = mem.RWX
	}
	if err := m.Map(layout.Text, pageCeil(uint32(len(ld.Text))+1), textPerm); err != nil {
		return nil, fmt.Errorf("kernel: map text: %w", err)
	}
	dataSize := pageCeil(uint32(len(ld.Data)) + 1)
	if err := m.Map(layout.Data, dataSize, dataPerm); err != nil {
		return nil, fmt.Errorf("kernel: map data: %w", err)
	}
	if err := m.Map(layout.StackLow, layout.StackSize, dataPerm); err != nil {
		return nil, fmt.Errorf("kernel: map stack: %w", err)
	}
	// Loader writes go through the raw paths, which bump the per-page write
	// stamps of every page they touch — any CPU code cache over these pages
	// starts (or restarts) cold, so the freshly loaded text is what executes.
	if err := m.LoadRaw(layout.Text, ld.Text); err != nil {
		return nil, err
	}
	if err := m.LoadRaw(layout.Data, ld.Data); err != nil {
		return nil, err
	}

	// Apply relocations now that bases are known.
	base := func(sec asm.Section) uint32 {
		if sec == asm.SecText {
			return layout.Text
		}
		return layout.Data
	}
	for _, r := range ld.relocs {
		target := base(r.targetSec) + r.targetOff
		var v uint32
		switch r.kind {
		case asm.RelAbs32:
			v = target
		case asm.RelPC32:
			v = target - (layout.Text + r.instrEnd)
		}
		m.PokeWord(base(r.sec)+r.off, v)
	}

	p := &Process{
		Mem:    m,
		Layout: layout,
		Linked: ld,
		Config: cfg,
		brk:    layout.Heap,
		allocs: make(map[uint32]uint32),
	}

	// Stack canary (Section III-C1): an unpredictable value the loader
	// writes into the process; function prologues copy it next to the
	// saved registers and epilogues verify it.
	p.Canary = CanaryValue(cfg.CanarySeed)
	if addr, ok := p.SymbolAddr("__canary"); ok {
		m.PokeWord(addr, p.Canary)
	}

	c := cpu.New(m)
	c.ShadowStack = cfg.ShadowStack
	start, ok := p.SymbolAddr("_start")
	if !ok {
		return nil, fmt.Errorf("kernel: no _start symbol (link against Libc())")
	}
	c.IP = start
	c.Reg[4] = layout.StackTop // ESP
	c.Handler = (*trapHandler)(p)
	p.CPU = c
	return p, nil
}

// Run executes the process to completion (exit, fault, or step budget) and
// returns the final CPU state.
func (p *Process) Run() cpu.State {
	max := p.Config.MaxSteps
	if max == 0 {
		max = DefaultMaxSteps
	}
	return p.CPU.Run(max)
}

// RunUntil executes until the instruction pointer reaches addr (the
// breakpoint pauses before the instruction runs), or the process stops for
// another reason.
func (p *Process) RunUntil(addr uint32) cpu.State {
	p.CPU.SetBreak(addr, true)
	st := p.Run()
	p.CPU.SetBreak(addr, false)
	return st
}

// MaxHeapBytes caps the heap segment, like RLIMIT_DATA: Sbrk beyond it
// fails with ENOMEM instead of mapping gigabytes. Keeps runaway
// allocation loops (and fuzzed junk code requesting absurd breaks)
// bounded.
const MaxHeapBytes = uint32(64 << 20)

// Sbrk grows the heap by n bytes (page-rounded) and returns the old break.
func (p *Process) Sbrk(n uint32) (uint32, error) {
	old := p.brk
	if n == 0 {
		return old, nil
	}
	limit := p.Config.MaxHeap
	if limit == 0 {
		limit = MaxHeapBytes
	}
	newBrk := old + n
	if newBrk < old || newBrk-p.Layout.Heap > limit {
		return 0, fmt.Errorf("kernel: sbrk(%d): heap limit exceeded", n)
	}
	oldCeil := pageCeil(old)
	newCeil := pageCeil(newBrk)
	if newCeil > oldCeil {
		perm := mem.RW
		if !p.Config.DEP {
			perm = mem.RWX
		}
		if err := p.Mem.Map(oldCeil, newCeil-oldCeil, perm); err != nil {
			return 0, err
		}
	}
	p.brk = newBrk
	return old, nil
}

// RegisterAlloc records an allocation in the kernel-side registry used by
// the checked dialect and CheckedLibc.
func (p *Process) RegisterAlloc(addr, size uint32) { p.allocs[addr] = size }

// UnregisterAlloc removes an allocation from the registry.
func (p *Process) UnregisterAlloc(addr uint32) { delete(p.allocs, addr) }

// CheckAlloc reports whether [addr, addr+size) lies fully inside one
// registered allocation.
func (p *Process) CheckAlloc(addr, size uint32) bool {
	for base, asize := range p.allocs {
		if addr >= base && addr+size <= base+asize && addr+size >= addr {
			return true
		}
	}
	return false
}
