// Package layout parameterizes the machine layouts the reproduction runs
// on. The paper's mitigations are contracts about layout — a canary
// protects the return address only if the overflow must cross it, ASLR
// hides only what the attacker must guess — yet the seed hardcoded
// exactly one frame geometry (Figure 1) and one loader segment order.
// A Profile lifts both into data:
//
//   - stack-frame geometry: where the canary slot sits relative to the
//     saved registers and the locals, and in which direction declared
//     locals are ordered;
//   - loader segment placement: the nominal text/data/heap/stack bases,
//     the stack mapping size and headroom, and the per-segment ASLR
//     randomization windows.
//
// Three named profiles ship:
//
//   - "classic": the paper's Figure 1 layout, bit-identical to the seed's
//     hardcoded behavior (all historical goldens hold);
//   - "canary-below-vla": the CVE-2023-4039 shape — buffers sit *above*
//     the canary's protection, so an upward overflow reaches the return
//     address without ever crossing the canary;
//   - "inverted-locals": locals ordered in reverse, so overflows that
//     relied on a later-declared variable sitting above the buffer miss
//     their target (and run into the canary instead when one is on).
//
// Consumers: internal/minc (prologue/epilogue emission and FrameOff
// assignment), internal/kernel (loader segment placement and ASLR
// draws), internal/core (reconnaissance and attack payload offsets),
// internal/fuzz (campaign platform), and the harness CLI (-profile).
package layout

import (
	"fmt"
	"sort"
	"sync"
)

// CanaryPlacement says where the compiler's canary slot goes in a frame.
type CanaryPlacement int

const (
	// CanaryAboveLocals is the classic StackGuard placement: the canary
	// sits directly below the saved base pointer, above every local, so
	// an overflow running up toward the return address must corrupt it.
	CanaryAboveLocals CanaryPlacement = iota
	// CanaryBelowLocals is the CVE-2023-4039 shape: the canary sits
	// below all locals, "protecting" them from frames further down —
	// and protecting nothing on the path from a local buffer up to the
	// saved return address.
	CanaryBelowLocals
)

// LocalOrder says in which direction declared locals are assigned frame
// slots.
type LocalOrder int

const (
	// DeclarationOrder is the classic Figure-1 assignment: the first
	// declared local sits closest to the saved base pointer.
	DeclarationOrder LocalOrder = iota
	// ReverseOrder assigns slots in reverse: the *last* declared local
	// sits closest to the saved base pointer, so "guard variable above
	// the buffer" source patterns land below it instead.
	ReverseOrder
)

// Segments is the nominal (non-ASLR) segment placement of a profile.
type Segments struct {
	Text uint32
	Data uint32
	Heap uint32
	// StackLow is the lowest mapped stack address; the mapping spans
	// [StackLow, StackLow+StackSize).
	StackLow  uint32
	StackSize uint32
	// StackHeadroom is the gap between the top of the stack mapping and
	// the initial ESP, so early pushes and environment-style slop never
	// fault off the mapping's edge.
	StackHeadroom uint32
}

// ASLRWindows gives the per-segment randomization windows in pages. The
// text/data/heap bases move up by [0, window) pages; the whole stack
// mapping moves *down* by [0, StackPages) pages.
type ASLRWindows struct {
	TextPages  int32
	DataPages  int32
	HeapPages  int32
	StackPages int32
}

// Profile is one named machine layout.
type Profile struct {
	// Name is the stable identifier used by -profile flags, scenario
	// names, and Mitigations.Profile.
	Name string
	// Desc is a one-line human description for listings.
	Desc string

	Canary CanaryPlacement
	Locals LocalOrder
	Seg    Segments
	ASLR   ASLRWindows
}

// Classic is the paper's Figure 1 layout — the seed's hardcoded geometry,
// reproduced bit-identically.
func Classic() *Profile {
	return &Profile{
		Name:   "classic",
		Desc:   "Figure 1: canary above locals, declaration order, text<data<heap<stack",
		Canary: CanaryAboveLocals,
		Locals: DeclarationOrder,
		Seg: Segments{
			Text:          0x08048000,
			Data:          0x08100000,
			Heap:          0x08200000,
			StackLow:      0xBFFF0000,
			StackSize:     0x00010000,
			StackHeadroom: 0x1000,
		},
		ASLR: ASLRWindows{TextPages: 0x400, DataPages: 0x100, HeapPages: 0x2000, StackPages: 0x800},
	}
}

// CanaryBelowVLA is the CVE-2023-4039-shaped profile: same segment order
// as classic, but the canary slot sits below the locals, so stack
// buffers overflow upward into the saved registers without crossing it.
func CanaryBelowVLA() *Profile {
	p := Classic()
	p.Name = "canary-below-vla"
	p.Desc = "CVE-2023-4039 shape: canary below the locals, return address unguarded"
	p.Canary = CanaryBelowLocals
	return p
}

// InvertedLocals reverses local ordering (last-declared nearest the saved
// base pointer) and inverts the address-space order: the stack sits at
// the *bottom* of the space with text/data/heap above it.
func InvertedLocals() *Profile {
	return &Profile{
		Name:   "inverted-locals",
		Desc:   "reverse local order, stack below text/data/heap",
		Canary: CanaryAboveLocals,
		Locals: ReverseOrder,
		Seg: Segments{
			Text:          0x40000000,
			Data:          0x40100000,
			Heap:          0x40200000,
			StackLow:      0x00A00000,
			StackSize:     0x00010000,
			StackHeadroom: 0x1000,
		},
		ASLR: ASLRWindows{TextPages: 0x400, DataPages: 0x100, HeapPages: 0x2000, StackPages: 0x800},
	}
}

// The named profiles are immutable after construction, so lookups are
// memoized: ByName runs on every trial's BuildVictim and used to pay a
// full three-constructor rebuild plus a linear scan per call. No
// consumer mutates a *Profile it did not construct itself.
var profCache struct {
	once   sync.Once
	all    []*Profile
	byName map[string]*Profile
	names  []string
}

func profiles() {
	profCache.all = []*Profile{Classic(), CanaryBelowVLA(), InvertedLocals()}
	profCache.byName = make(map[string]*Profile, len(profCache.all))
	for _, p := range profCache.all {
		profCache.byName[p.Name] = p
		profCache.names = append(profCache.names, p.Name)
	}
	sort.Strings(profCache.names)
}

// Profiles returns every named profile, in stable order. The returned
// profiles are shared and must not be mutated.
func Profiles() []*Profile {
	profCache.once.Do(profiles)
	return append([]*Profile(nil), profCache.all...)
}

// Names returns the profile names, sorted, for error messages and flag
// help.
func Names() []string {
	profCache.once.Do(profiles)
	return append([]string(nil), profCache.names...)
}

// ByName resolves a profile name. The empty string means classic (the
// unparameterized historical behavior). The returned profile is shared
// and must not be mutated.
func ByName(name string) (*Profile, error) {
	profCache.once.Do(profiles)
	if name == "" {
		return profCache.byName["classic"], nil
	}
	if p, ok := profCache.byName[name]; ok {
		return p, nil
	}
	return nil, fmt.Errorf("unknown layout profile %q (want one of %v)", name, Names())
}

// OrClassic returns p, or the shared classic profile when p is nil —
// the nil default every consumer uses so existing call sites keep their
// seed behavior.
func OrClassic(p *Profile) *Profile {
	if p == nil {
		profCache.once.Do(profiles)
		return profCache.byName["classic"]
	}
	return p
}

// StackTop is the initial ESP the loader hands the process.
func (p *Profile) StackTop() uint32 {
	return p.Seg.StackLow + p.Seg.StackSize - p.Seg.StackHeadroom
}

func align4(n int32) int32 { return (n + 3) &^ 3 }

// Frame is the computed geometry of one compiled function's frame under a
// profile: per-local offsets from the saved base pointer, the canary slot
// (when canaries are compiled in), and the aligned frame size. It is the
// single source of truth shared by the compiler (slot assignment), the
// attacker's reconnaissance (smash offsets), and the tests (no more magic
// 20s and 24s).
type Frame struct {
	// Size is the aligned local-area size the prologue subtracts from
	// ESP (excluding the outgoing-argument area).
	Size int32
	// Offs holds each local's frame offset (negative, EBP-relative), in
	// declaration order regardless of the profile's assignment order.
	Offs []int32
	// HasCanary reports whether a canary slot was laid out; CanaryOff is
	// its frame offset when it was.
	HasCanary bool
	CanaryOff int32
}

// Frame lays out a function's locals, given their byte sizes in
// declaration order, exactly as internal/minc assigns FrameOffs under
// this profile: each local is 4-aligned; under DeclarationOrder the first
// declared local sits closest to the saved base pointer, under
// ReverseOrder the last one does; the canary slot (when canary is true)
// goes above all locals (CanaryAboveLocals) or below them
// (CanaryBelowLocals).
func (p *Profile) Frame(canary bool, sizes ...int) Frame {
	f := Frame{Offs: make([]int32, len(sizes)), HasCanary: canary}
	cur := int32(0)
	if canary && p.Canary == CanaryAboveLocals {
		cur = 4
		f.CanaryOff = -4
	}
	assign := func(i int) {
		cur += align4(int32(sizes[i]))
		f.Offs[i] = -cur
	}
	if p.Locals == ReverseOrder {
		for i := len(sizes) - 1; i >= 0; i-- {
			assign(i)
		}
	} else {
		for i := range sizes {
			assign(i)
		}
	}
	if canary && p.Canary == CanaryBelowLocals {
		cur += 4
		f.CanaryOff = -cur
	}
	f.Size = align4(cur)
	return f
}

// RetOffFrom returns the byte distance from the start of local i to the
// saved return address at [ebp+4] — the RetOff a smashing payload
// overflowing that local needs.
func (f Frame) RetOffFrom(i int) int { return int(4 - f.Offs[i]) }

// CanaryOffFrom returns the byte distance from the start of local i to
// the canary slot, and whether an overflow running upward from that local
// to the saved return address crosses the canary at all. When it does
// not (crossed == false), the canary detects nothing: the CVE-2023-4039
// condition.
func (f Frame) CanaryOffFrom(i int) (off int, crossed bool) {
	if !f.HasCanary {
		return 0, false
	}
	return int(f.CanaryOff - f.Offs[i]), f.CanaryOff > f.Offs[i]
}
